package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"parcfl"
	"parcfl/internal/frontend"
	"parcfl/internal/sched"
)

// oracleSample is how many completed answers per run the oracle re-solves
// on a fresh solver (spread over the run's programs).
const oracleSample = 200

// runCensus is the paper's batch client: for each of the run's programs,
// lower it (NewAnalyzer) and then run back-to-back cold RunBatch calls over
// the whole application census, one caller, for the program's share of
// the run's seconds (at least one batch). A traced run covers half the
// programs with two batches each, one traced and one not, alternating
// which goes first, so that it measures its own overhead in the same time.
func runCensus(cfg runConfig, w workload) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	minBatches := 1
	if cfg.trace {
		tr = newTracer()
		out.tr = tr
		w.programs = (w.programs + 1) / 2
		minBatches = 2
	}
	opts := parcfl.BatchOptions{Mode: parcfl.SharingScheduling, Threads: runtime.NumCPU(), Budget: budget}
	slot := time.Duration(cfg.seconds / float64(w.programs) * float64(time.Second))
	perProgramSample := (oracleSample + w.programs - 1) / w.programs
	rng := rand.New(rand.NewSource(deriveSeed(cfg.seed, "oracle", 0)))

	var lowerMS, batchMS, rssMB, rate, schedMS, solveExSched, overhead []float64
	var groups, groupSize, imbalance, ets, jumps []float64
	var queries, aborted, walked, saved, total, wasted, lookups, hits int64
	var wall time.Duration
	var sections []string
	for k := 0; k < w.programs; k++ {
		prog, jseed, err := generate(w, cfg.seed, k)
		if err != nil {
			return nil, err
		}
		// The peak RSS below covers the analysis only: the generator's
		// garbage is returned first, the oracle runs after.
		runtime.GC()
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, fmt.Errorf("resetting peak RSS: %w", err)
		}

		t0 := time.Now()
		a, err := parcfl.NewAnalyzer(prog)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("program %d: %w", k, err)
		}
		tr.add(0, "frontend.NewAnalyzer", fmt.Sprintf("program-%d", k), 1, t0, t1)
		lowerMS = append(lowerMS, ms(t1.Sub(t0)))
		census := a.ApplicationQueryVars()
		out.graphs = append(out.graphs, graphCensus{JavagenSeed: jseed, Nodes: a.NumNodes(), Edges: a.NumEdges(), Locals: len(census)})

		var times, tracedTimes, untracedTimes []float64
		var batches [][]parcfl.BatchResult
		start := time.Now()
		for i := 0; i < minBatches || time.Since(start) < slot; i++ {
			b0 := time.Now()
			res, st := a.RunBatch(census, opts)
			b1 := time.Now()
			d := ms(b1.Sub(b0))
			times = append(times, d)
			if cfg.trace && (i+k)%2 == 1 {
				tr.add(0, "parcfl.RunBatch", fmt.Sprintf("program-%d/batch-%d", k, i), 1, b0, b1)
				tracedTimes = append(tracedTimes, d)
			} else {
				untracedTimes = append(untracedTimes, d)
			}
			batches = append(batches, res)
			groups = append(groups, float64(st.NumGroups))
			groupSize = append(groupSize, st.AvgGroupSize)
			imbalance = append(imbalance, workerImbalance(st.WalkedPerWorker))
			ets = append(ets, float64(st.EarlyTerminations))
			jumps = append(jumps, float64(st.Share.FinishedAdded+st.Share.UnfinishedAdded))
			queries += int64(st.Queries)
			aborted += int64(st.Aborted)
			walked += st.StepsWalked()
			saved += st.StepsSaved
			total += st.TotalSteps
			lookups += st.Share.Lookups
			hits += st.Share.LookupHits
			wall += b1.Sub(b0)
			for _, r := range res {
				if r.Aborted {
					wasted += int64(r.Steps)
				}
			}
		}
		rss, err := peakRSSMiB("self")
		if err != nil {
			return nil, err
		}
		rssMB = append(rssMB, rss)
		med := median(times)
		batchMS = append(batchMS, med)
		rate = append(rate, float64(len(census))/med*1000)
		if cfg.trace {
			overhead = append(overhead, median(tracedTimes)-median(untracedTimes))
		}

		// Outside the timed phase: the scheduler probe and the oracle, both
		// over an independent lowering of the same program.
		lo, err := frontend.Lower(prog)
		if err != nil {
			return nil, err
		}
		if lo.Graph.NumNodes() != a.NumNodes() || lo.Graph.Node(census[0]).Name != a.NodeName(census[0]) {
			return nil, fmt.Errorf("program %d: the oracle's lowering numbers nodes differently", k)
		}
		if cfg.trace {
			var probe []float64
			for i := 0; i < 3; i++ {
				s0 := time.Now()
				sched.Schedule(lo.Graph, census, lo.TypeLevels)
				s1 := time.Now()
				tr.add(0, "sched.Schedule (probe)", fmt.Sprintf("program-%d", k), 2, s0, s1)
				probe = append(probe, ms(s1.Sub(s0)))
			}
			schedMS = append(schedMS, probe...)
			solveExSched = append(solveExSched, med-median(probe))
		}
		o := newOracle(lo.Graph)
		var answers []answer
		for _, res := range batches {
			for _, r := range res {
				answers = append(answers, answer{v: r.Var, objects: r.Objects, aborted: r.Aborted})
			}
		}
		v := o.verify(answers, perProgramSample, rng)
		out.attempted += v.checked
		out.failed += v.failed
		for _, err := range v.errs {
			fmt.Fprintln(os.Stderr, "perfbench: oracle:", err)
		}
		sections = append(sections, fmt.Sprintf("program %d (javagen seed %d): %d nodes, %d locals, %d batches, median %.1f ms, peak RSS %.1f MiB, oracle %d checked / %d exact / %d failed",
			k, jseed, a.NumNodes(), len(census), len(times), med, rss, v.checked, v.exact, v.failed))
	}

	out.e2e["setup_s"] = median(lowerMS) / 1000
	out.e2e["p50_ms"] = median(batchMS)
	out.e2e["answers_per_s"] = median(rate)
	out.e2e["peak_rss_mb"] = median(rssMB)

	l := out.layer
	for _, m := range perLayer {
		l[m.name] = 0 // the server, snapshot and load-generator layers do not run here
	}
	l["frontend.lower_ms"] = median(lowerMS)
	l["sched.schedule_ms_p50"] = median(schedMS)
	l["sched.schedule_ms_p99"] = quantile(schedMS, 0.99)
	l["sched.groups"] = median(groups)
	l["sched.avg_group_size"] = median(groupSize)
	l["engine.solve_ex_sched_ms_p50"] = median(solveExSched)
	l["engine.worker_imbalance"] = median(imbalance)
	l["cfl.steps_walked_per_query"] = ratio(float64(walked), float64(queries))
	l["cfl.walked_steps_per_s"] = ratio(float64(walked), wall.Seconds())
	l["cfl.wasted_step_frac"] = ratio(float64(wasted), float64(total))
	l["cfl.early_terminations"] = median(ets)
	l["cfl.aborted_frac"] = ratio(float64(aborted), float64(queries))
	l["share.hit_rate"] = ratio(float64(hits), float64(lookups))
	l["share.rs"] = ratio(float64(saved), float64(walked))
	l["share.jumps"] = median(jumps)
	l["trace.overhead_ms"] = median(overhead)
	out.sections = []string{"# programs\n" + strings.Join(sections, "\n") + "\n"}
	return out, nil
}

// workerImbalance is max/mean of the per-worker walked steps (1 = even).
func workerImbalance(walked []int64) float64 {
	var sum, mx int64
	for _, x := range walked {
		sum += x
		mx = max(mx, x)
	}
	if sum == 0 {
		return 1
	}
	return float64(mx) * float64(len(walked)) / float64(sum)
}
