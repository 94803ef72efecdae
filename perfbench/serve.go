package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"parcfl/internal/frontend"
	"parcfl/internal/pag"
	"parcfl/internal/sched"
	"parcfl/internal/server"
	"parcfl/internal/snapshot"
)

const (
	// maxGenLagMS bounds how late the open-loop generator may hand a
	// request to a connection (p99) before the run counts as invalid. The
	// generator shares the host's cores with the daemon, so it is woken
	// late by a few milliseconds under load; latency counts from the due
	// time either way.
	maxGenLagMS = 25
	// setupBoots is how many extra set-up-only boots each round makes, so
	// setup_s is a median over (setupBoots+1) x programs boots.
	setupBoots = 1
	// replayBatches caps the dispatched batches whose schedule the traced
	// run re-times, per round.
	replayBatches = 40
	// openShare is the open-loop phase's share of a run's seconds: at the
	// base rates it yields the >= 200 requests per run that put ten
	// beyond latency.p95_ms; the rest is the closed-loop phase.
	openShare = 0.65
	// spinWindow is how long before a request's due time the open-loop
	// generator stops sleeping and yields instead.
	spinWindow = 2 * time.Millisecond
)

// daemon is one running cmd/parcfld.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	logf   *os.File
}

// bootDaemon starts parcfld with its default flags on a private copy of
// snapPath and returns once /v1/stats answers, with the time that took.
func bootDaemon(bin, snapPath, dir string, client *http.Client) (*daemon, time.Duration, error) {
	bootSnap := filepath.Join(dir, "boot.pag")
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile) // a stale address must not be mistaken for this boot's
	if err := copyFile(bootSnap, snapPath); err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, "parcfld.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{exited: make(chan struct{}), logf: logf}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-snapshot", bootSnap)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even when it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting parcfld: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is read through exited only
		close(d.exited)
	}()
	deadline := t0.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("parcfld exited during start-up; see %s", logf.Name())
		default:
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if resp, err := client.Get(d.base + "/v1/stats"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(t0), nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop(syscall.SIGKILL)
	return nil, 0, fmt.Errorf("parcfld did not answer /v1/stats within 60s")
}

// stop signals the daemon and waits for it to exit (SIGKILL after 30s).
func (d *daemon) stop(sig syscall.Signal) {
	_ = d.cmd.Process.Signal(sig) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.logf.Close()
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

func (d *daemon) stats(client *http.Client) (server.Stats, error) {
	var st server.Stats
	resp, err := client.Get(d.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// earlyTerminations reads the engine's early-termination counter from the
// daemon's /metrics.
func (d *daemon) earlyTerminations(client *http.Client) (float64, error) {
	resp, err := client.Get(d.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "parcfl_early_terminations_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("/metrics has no parcfl_early_terminations_total")
}

// request is one query sent to the daemon and what came back.
type request struct {
	id     string
	lane   int // connection (worker) index
	v      pag.NodeID
	traced bool

	due, enq, sent, done time.Time
	status               int
	err                  error
	res                  server.VarResult
}

func (r *request) ok() bool { return r.err == nil && r.status == http.StatusOK }

func (r *request) latency() time.Duration { return r.done.Sub(r.due) }

// overhead is the client round trip the server's own phases do not
// account for: connection, HTTP decode, marshal and encode.
func (r *request) overhead() time.Duration {
	return r.done.Sub(r.sent) - time.Duration(r.res.Timings.TotalNS)
}

// send performs r as one POST /v1/query on client.
func send(client *http.Client, base, name string, r *request) {
	body, _ := json.Marshal(server.QuerySpec{Var: name}) // cannot fail for this type
	req, err := http.NewRequest(http.MethodPost, base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.RequestIDHeader, r.id)
	r.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		r.done, r.err = time.Now(), err
		return
	}
	var reply server.QueryReply
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	r.done, r.status = time.Now(), resp.StatusCode
	switch {
	case r.status != http.StatusOK:
		r.err = fmt.Errorf("%s: %s", r.id, resp.Status)
	case err != nil:
		r.err = fmt.Errorf("%s: decoding reply: %w", r.id, err)
	case len(reply.Results) != 1 || reply.Results[0].Timings == nil:
		r.err = fmt.Errorf("%s: reply has %d results", r.id, len(reply.Results))
	default:
		r.res = reply.Results[0]
	}
}

// loadgen drives one daemon with at most conns keep-alive connections.
type loadgen struct {
	client *http.Client
	base   string
	conns  int
	name   func(pag.NodeID) string
	trace  bool
	round  int
	seq    atomic.Int64
}

func (g *loadgen) newRequest(v pag.NodeID) *request {
	n := g.seq.Add(1)
	return &request{id: fmt.Sprintf("pb-r%d-%d", g.round, n), v: v, traced: g.trace && n%2 == 0}
}

// openLoop sends Poisson arrivals at rate req/s for dur, each variable from
// next. Latency counts from each request's due time. It returns the
// requests and the largest backlog of due-but-unsent requests.
func (g *loadgen) openLoop(rate float64, dur time.Duration, rng *rand.Rand, next func() (pag.NodeID, bool)) ([]*request, int) {
	var reqs []*request
	for at := time.Duration(0); ; {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			break
		}
		v, ok := next()
		if !ok {
			break
		}
		r := g.newRequest(v)
		r.due = time.Time{}.Add(at) // offset until start is known
		reqs = append(reqs, r)
	}
	queue := make(chan *request, len(reqs)) // sized to the number of sends
	var started atomic.Int64
	backlog := 0
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for r := range queue {
				started.Add(1)
				r.lane = lane
				send(g.client, g.base, g.name(r.v), r)
			}
		}(c)
	}
	start := time.Now()
	for i, r := range reqs {
		r.due = start.Add(r.due.Sub(time.Time{}))
		// Sleeps wake up to a millisecond late, so sleep short of the due
		// time and yield until it arrives.
		if d := time.Until(r.due) - spinWindow; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(r.due) {
			runtime.Gosched()
		}
		r.enq = time.Now()
		queue <- r
		backlog = max(backlog, i+1-int(started.Load()))
	}
	close(queue)
	wg.Wait()
	return reqs, backlog
}

// closedLoop runs conns callers, each sending its next request when the
// previous reply arrives, until dur has passed. It returns the requests
// and the phase's wall time (until the last reply).
func (g *loadgen) closedLoop(dur time.Duration, next func() (pag.NodeID, bool)) ([]*request, time.Duration) {
	var mu sync.Mutex
	var reqs []*request
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				v, ok := next()
				mu.Unlock()
				if !ok {
					return
				}
				r := g.newRequest(v)
				r.lane = lane
				r.due = time.Now()
				r.enq = r.due
				send(g.client, g.base, g.name(r.v), r)
				mu.Lock()
				reqs = append(reqs, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return reqs, time.Since(start)
}

// round is everything one daemon lifetime measured.
type round struct {
	setups     []time.Duration
	open       []*request
	closed     []*request
	closedWall time.Duration
	backlog    int
	rss        float64
	s0, s1, s2 server.Stats // before, between and after the two phases
	et0, et2   float64
	lowerMS    float64
	snapPath   string
}

// runServe boots a fresh parcfld per program and drives it with an open
// loop at the workload's base rate, then a closed loop of nproc callers.
func runServe(cfg runConfig, w workload) (*outcome, error) {
	if cfg.parcfld == "" {
		return nil, errors.New("serve workloads need -parcfld")
	}
	out := newOutcome()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		out.tr = tr
	}
	conns := runtime.NumCPU()
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
	defer client.CloseIdleConnections()
	openDur := time.Duration(cfg.seconds * openShare / float64(w.programs) * float64(time.Second))
	closedDur := time.Duration(cfg.seconds * (1 - openShare) / float64(w.programs) * float64(time.Second))
	oracleRNG := rand.New(rand.NewSource(deriveSeed(cfg.seed, "oracle", 0)))
	perRoundSample := (oracleSample + w.programs - 1) / w.programs

	var rounds []*round
	var replay, solveExSched, snapRead, snapMB []float64
	var roundLines, replayTables []string
	for k := 0; k < w.programs; k++ {
		prog, jseed, err := generate(w, cfg.seed, k)
		if err != nil {
			return nil, err
		}
		rd := &round{}
		t0 := time.Now()
		lo, err := frontend.Lower(prog)
		if err != nil {
			return nil, err
		}
		rd.lowerMS = ms(time.Since(t0))
		g := lo.Graph
		byName := names(g)
		census := servedCensus(lo, byName)
		out.graphs = append(out.graphs, graphCensus{JavagenSeed: jseed, Nodes: g.NumNodes(), Edges: g.NumEdges(), Locals: len(census)})
		dir := filepath.Join(cfg.outDir, fmt.Sprintf("work-%s-%d-%d", w.name, cfg.seed, k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		rd.snapPath = filepath.Join(dir, "start.pag")
		if err := writeSnapshot(rd.snapPath, w, lo); err != nil {
			return nil, err
		}

		for i := 0; i < setupBoots; i++ {
			d, setup, err := bootDaemon(cfg.parcfld, rd.snapPath, dir, client)
			if err != nil {
				return nil, err
			}
			rd.setups = append(rd.setups, setup)
			d.stop(syscall.SIGKILL)
			client.CloseIdleConnections()
		}
		d, setup, err := bootDaemon(cfg.parcfld, rd.snapPath, dir, client)
		if err != nil {
			return nil, err
		}
		rd.setups = append(rd.setups, setup)
		if err := measureRound(d, client, cfg, w, k, census, g, rd, openDur, closedDur); err != nil {
			d.stop(syscall.SIGKILL)
			return nil, err
		}
		d.stop(syscall.SIGTERM)
		client.CloseIdleConnections()
		rounds = append(rounds, rd)

		// Outside the timed phases: the oracle, then (traced) the snapshot
		// read and the schedule replay.
		failedBefore := out.failed
		o := newOracle(g)
		all := append(append([]*request(nil), rd.open...), rd.closed...)
		answers := make([]answer, 0, len(all))
		for _, r := range all {
			out.attempted++
			if !r.ok() {
				out.failed++
				if out.failed <= 5 {
					fmt.Fprintln(os.Stderr, "perfbench: request failed:", r.err)
				}
				continue
			}
			a, err := toAnswer(r, byName)
			if err != nil {
				out.failed++
				fmt.Fprintln(os.Stderr, "perfbench: oracle:", err)
				continue
			}
			answers = append(answers, a)
		}
		v := o.verify(answers, perRoundSample, oracleRNG)
		out.failed += v.failed
		for _, err := range v.errs {
			fmt.Fprintln(os.Stderr, "perfbench: oracle:", err)
		}
		line := fmt.Sprintf("round %d (javagen seed %d): %d nodes, %d served locals, setup %v, %d open + %d closed requests, oracle %d checked / %d exact / %d failed",
			k, jseed, g.NumNodes(), len(census), rd.setups, len(rd.open), len(rd.closed), v.checked, v.exact, v.failed)
		roundLines = append(roundLines, line)

		if cfg.trace {
			r0 := time.Now()
			snap, err := snapshot.Load(rd.snapPath)
			r1 := time.Now()
			if err != nil {
				return nil, err
			}
			tr.add(0, "snapshot.Read", fmt.Sprintf("round-%d", k), 0, r0, r1)
			snapRead = append(snapRead, ms(r1.Sub(r0)))
			if fi, err := os.Stat(rd.snapPath); err == nil {
				snapMB = append(snapMB, float64(fi.Size())/(1<<20))
			}
			rep, ex, table := replaySchedule(snap, all, byName, deriveSeed(cfg.seed, "replay", k), tr)
			replay = append(replay, rep...)
			solveExSched = append(solveExSched, ex...)
			replayTables = append(replayTables, table)
			for _, r := range all {
				if r.traced && r.ok() {
					traceRequest(tr, r)
				}
			}
		}
		if out.failed == failedBefore {
			// Keep the snapshots and the daemon's log only when they explain a failure.
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	summarize(out, w, rounds)
	l := out.layer
	l["snapshot.read_ms"] = median(snapRead)
	l["snapshot.mb"] = median(snapMB)
	l["sched.schedule_ms_p50"] = median(replay)
	l["sched.schedule_ms_p99"] = quantile(replay, 0.99)
	l["engine.solve_ex_sched_ms_p50"] = median(solveExSched)
	out.sections = append([]string{"# rounds\n" + strings.Join(roundLines, "\n") + "\n"}, out.sections...)
	out.sections = append(out.sections, replayTables...)
	return out, nil
}

// measureRound runs the open- and closed-loop phases against d.
func measureRound(d *daemon, client *http.Client, cfg runConfig, w workload, k int, census []pag.NodeID, g *pag.Graph, rd *round, openDur, closedDur time.Duration) error {
	rng := rand.New(rand.NewSource(deriveSeed(cfg.seed, "draws", k)))
	arrivals := rand.New(rand.NewSource(deriveSeed(cfg.seed, "arrivals", k)))
	perm := rng.Perm(len(census))
	var next func() (pag.NodeID, bool)
	switch w.draw {
	case drawZipf:
		z := rand.NewZipf(rng, 1.1, 1, uint64(len(census)-1))
		next = func() (pag.NodeID, bool) { return census[perm[z.Uint64()]], true }
	case drawUnique:
		i := 0
		next = func() (pag.NodeID, bool) {
			if i == len(perm) {
				return 0, false
			}
			i++
			return census[perm[i-1]], true
		}
	}
	lg := &loadgen{client: client, base: d.base, conns: runtime.NumCPU(), trace: cfg.trace, round: k,
		name: func(v pag.NodeID) string { return g.Node(v).Name }}
	var err error
	if rd.s0, err = d.stats(client); err != nil {
		return err
	}
	if rd.et0, err = d.earlyTerminations(client); err != nil {
		return err
	}
	rd.open, rd.backlog = lg.openLoop(w.rate, openDur, arrivals, next)
	if rd.s1, err = d.stats(client); err != nil {
		return err
	}
	rd.closed, rd.closedWall = lg.closedLoop(closedDur, next)
	if rd.s2, err = d.stats(client); err != nil {
		return err
	}
	if rd.et2, err = d.earlyTerminations(client); err != nil {
		return err
	}
	rd.rss, err = peakRSSMiB(d.pid())
	return err
}

// toAnswer maps a reply's names back to the benchmark's own graph.
func toAnswer(r *request, byName map[string]pag.NodeID) (answer, error) {
	a := answer{v: r.v, aborted: r.res.Aborted}
	if got, ok := byName[r.res.Var]; !ok || got != r.v {
		return a, fmt.Errorf("%s: reply names variable %q, asked about node %d", r.id, r.res.Var, r.v)
	}
	for _, name := range r.res.Objects {
		obj, ok := byName[name]
		if !ok {
			return a, fmt.Errorf("%s: reply names unknown object %q", r.id, name)
		}
		a.objects = append(a.objects, obj)
	}
	return a, nil
}

// replaySchedule rebuilds dispatched batches from the replies' batch ids and
// re-times sched.Schedule on (a seeded sample of) them over the snapshot's
// graph. It returns the schedule times, each batch's solve time minus its
// schedule time, and a per-batch table.
func replaySchedule(snap *snapshot.Snapshot, reqs []*request, byName map[string]pag.NodeID, seed int64, tr *tracer) ([]float64, []float64, string) {
	type batch struct {
		vars    map[pag.NodeID]bool
		solveNS int64
	}
	batches := map[int64]*batch{}
	for _, r := range reqs {
		if !r.ok() || r.res.Timings.Coalesced {
			continue
		}
		b := batches[r.res.Timings.Batch]
		if b == nil {
			b = &batch{vars: map[pag.NodeID]bool{}}
			batches[r.res.Timings.Batch] = b
		}
		b.vars[byName[r.res.Var]] = true
		b.solveNS = max(b.solveNS, r.res.Timings.SolveNS)
	}
	ids := make([]int64, 0, len(batches))
	for id := range batches {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if len(ids) > replayBatches {
		ids = ids[:replayBatches]
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// One untimed call first, so the first timed one does not also pay for
	// growing this process's heap.
	runtime.GC()
	sched.Schedule(snap.Graph, snap.Meta.QueryVars[:1], snap.Meta.TypeLevels)
	var times, exSched []float64
	var b strings.Builder
	fmt.Fprintf(&b, "# sched.Schedule replay: %d of %d dispatched batches\n%-8s %6s %12s %12s\n", len(ids), len(batches), "batch", "vars", "schedule_ms", "solve_ms")
	for _, id := range ids {
		bt := batches[id]
		vars := make([]pag.NodeID, 0, len(bt.vars))
		for v := range bt.vars {
			vars = append(vars, v)
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
		t0 := time.Now()
		sched.Schedule(snap.Graph, vars, snap.Meta.TypeLevels)
		t1 := time.Now()
		tr.add(0, "sched.Schedule (replay)", fmt.Sprintf("batch-%d", id), 0, t0, t1)
		d := ms(t1.Sub(t0))
		times = append(times, d)
		exSched = append(exSched, float64(bt.solveNS)/1e6-d)
		fmt.Fprintf(&b, "%-8d %6d %12.3f %12.3f\n", id, len(vars), d, float64(bt.solveNS)/1e6)
	}
	return times, exSched, b.String()
}

// traceRequest records a served request's spans: the request from its due
// time, the wait for a free connection, the HTTP round trip, and inside it
// the server's phases from the reply's timings. The server phases are
// placed after half of the round trip's unattributed time.
func traceRequest(tr *tracer, r *request) {
	lane := r.lane + 1
	root := tr.add(0, "request", r.id, lane, r.due, r.done)
	tr.add(root, "loadgen.send_wait", r.id, lane, r.due, r.sent)
	rt := tr.add(root, "http.round_trip", r.id, lane, r.sent, r.done)
	t := r.res.Timings
	at := r.sent.Add((r.overhead() - time.Duration(t.MarshalNS)) / 2)
	for _, ph := range []struct {
		name string
		ns   int64
	}{{"server.admit", t.AdmitNS}, {"server.queue_wait", t.QueueWaitNS}, {"server.solve", t.SolveNS},
		{"server.fanout", t.FanoutNS}, {"http.marshal", t.MarshalNS}} {
		end := at.Add(time.Duration(ph.ns))
		tr.add(rt, ph.name, r.id, lane, at, end)
		at = end
	}
}

// summarize turns the rounds into the end-to-end and per-layer metrics.
func summarize(out *outcome, w workload, rounds []*round) {
	var setups, lat, roundP50, tracedLat, untracedLat, rps, rss, lower []float64
	var genLag []float64
	var admit, queue, solve, fanout, marshal, overhead []float64
	var walkedSteps, queries, vars, batches, coalesced, requests, rejected, timeouts float64
	var engineNS, engineAllNS, closedWallNS, lookups, hits, saved, cacheHits, cacheMiss float64
	var ets, jumps, entries []float64
	var wasted, stepsAll float64
	var backlog int
	var open []*request
	for _, rd := range rounds {
		for _, s := range rd.setups {
			setups = append(setups, s.Seconds())
		}
		lower = append(lower, rd.lowerMS)
		rss = append(rss, rd.rss)
		backlog = max(backlog, rd.backlog)
		okClosed := 0
		for _, r := range rd.closed {
			if r.ok() {
				okClosed++
			}
		}
		rps = append(rps, float64(okClosed)/rd.closedWall.Seconds())
		for _, r := range append(append([]*request(nil), rd.open...), rd.closed...) {
			if !r.ok() {
				continue
			}
			t := r.res.Timings
			admit = append(admit, float64(t.AdmitNS)/1e3)
			queue = append(queue, float64(t.QueueWaitNS)/1e6)
			solve = append(solve, float64(t.SolveNS)/1e6)
			fanout = append(fanout, float64(t.FanoutNS)/1e3)
			marshal = append(marshal, float64(t.MarshalNS)/1e3)
			overhead = append(overhead, ms(r.overhead()))
			if !t.Coalesced {
				stepsAll += float64(r.res.Steps)
				if r.res.Aborted {
					wasted += float64(r.res.Steps)
				}
			}
		}
		var roundLat []float64
		for _, r := range rd.open {
			genLag = append(genLag, ms(r.enq.Sub(r.due)))
			if !r.ok() {
				continue
			}
			open = append(open, r)
			roundLat = append(roundLat, ms(r.latency()))
			if r.traced {
				tracedLat = append(tracedLat, ms(r.latency()))
			} else {
				untracedLat = append(untracedLat, ms(r.latency()))
			}
		}
		lat = append(lat, roundLat...)
		roundP50 = append(roundP50, median(roundLat))
		d := delta(rd.s1, rd.s2) // the closed-loop phase: the batcher at saturation
		vars += float64(d.Queries)
		batches += float64(d.Batches)
		coalesced += float64(d.Coalesced)
		requests += float64(d.Requests)
		engineNS += float64(d.EngineNS)
		closedWallNS += float64(rd.closedWall)
		all := delta(rd.s0, rd.s2)
		rejected += float64(all.Rejected)
		timeouts += float64(all.Timeouts)
		walkedSteps += float64(all.TotalSteps - all.StepsSaved)
		engineAllNS += float64(all.EngineNS)
		saved += float64(all.StepsSaved)
		queries += float64(all.Queries)
		lookups += float64(all.Share.Lookups)
		hits += float64(all.Share.LookupHits)
		cacheHits += float64(all.Cache.Hits)
		cacheMiss += float64(all.Cache.Misses)
		ets = append(ets, rd.et2-rd.et0)
		jumps = append(jumps, float64(rd.s2.Share.CurFinished+rd.s2.Share.CurUnfinished))
		entries = append(entries, float64(rd.s2.Cache.Entries))
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["p50_ms"] = median(roundP50)
	out.e2e["answers_per_s"] = median(rps)
	out.e2e["peak_rss_mb"] = median(rss)
	if lag := quantile(genLag, 0.99); lag > maxGenLagMS {
		out.invalid = fmt.Sprintf("load generator p99 lag %.1f ms exceeds %d ms", lag, maxGenLagMS)
	}

	l := out.layer
	for _, m := range perLayer {
		l[m.name] = 0
	}
	l["frontend.lower_ms"] = median(lower)
	l["http.overhead_ms_p50"] = median(overhead)
	l["http.marshal_us_p50"] = median(marshal)
	l["server.admit_us_p50"] = median(admit)
	l["server.queue_wait_ms_p50"] = median(queue)
	l["server.queue_wait_ms_p99"] = quantile(queue, 0.99)
	l["server.solve_ms_p50"] = median(solve)
	l["server.solve_ms_p99"] = quantile(solve, 0.99)
	l["server.fanout_us_p50"] = median(fanout)
	l["server.vars_per_batch"] = ratio(vars, batches)
	l["server.coalesced_frac"] = ratio(coalesced, requests)
	l["server.engine_busy_frac"] = ratio(engineNS, closedWallNS)
	l["server.rejected"] = rejected
	l["server.timeouts"] = timeouts
	l["cfl.steps_walked_per_query"] = ratio(walkedSteps, queries)
	l["cfl.walked_steps_per_s"] = ratio(walkedSteps, engineAllNS/1e9)
	l["cfl.wasted_step_frac"] = ratio(wasted, stepsAll)
	l["cfl.early_terminations"] = median(ets)
	l["cfl.aborted_frac"] = abortedFrac(rounds)
	l["share.hit_rate"] = ratio(hits, lookups)
	l["share.rs"] = ratio(saved, walkedSteps)
	l["share.jumps"] = median(jumps)
	l["ptcache.hit_rate"] = ratio(cacheHits, cacheHits+cacheMiss)
	l["ptcache.entries"] = median(entries)
	l["latency.p95_ms"] = quantile(lat, 0.95)
	l["loadgen.lag_p99_ms"] = quantile(genLag, 0.99)
	l["loadgen.backlog_max"] = float64(backlog)
	l["trace.overhead_ms"] = median(tracedLat) - median(untracedLat)
	gap, ledger := medianLedger(open)
	l["ledger.p50_gap_ms"] = gap
	out.sections = append(out.sections, ledger)
}

// abortedFrac is the share of successful answers that were aborted.
func abortedFrac(rounds []*round) float64 {
	var n, ab float64
	for _, rd := range rounds {
		for _, r := range append(append([]*request(nil), rd.open...), rd.closed...) {
			if r.ok() {
				n++
				if r.res.Aborted {
					ab++
				}
			}
		}
	}
	return ratio(ab, n)
}

// medianLedger breaks the median open-loop request into its layers. The
// layers add up to its latency exactly; the gap is p50_ms minus the sum of
// the server's phases and the HTTP overhead, i.e. the wait for a free
// connection.
func medianLedger(open []*request) (float64, string) {
	if len(open) == 0 {
		return 0, ""
	}
	sorted := append([]*request(nil), open...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].latency() < sorted[j].latency() })
	r := sorted[(len(sorted)-1)/2]
	t := r.res.Timings
	parts := []struct {
		name string
		d    time.Duration
	}{
		{"loadgen.send_wait", r.sent.Sub(r.due)},
		{"server.admit", time.Duration(t.AdmitNS)},
		{"server.queue_wait", time.Duration(t.QueueWaitNS)},
		{"server.solve", time.Duration(t.SolveNS)},
		{"server.fanout", time.Duration(t.FanoutNS)},
		{"http.overhead (incl. marshal)", r.overhead()},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# median open-loop request %s (latency %.3f ms from due time)\n", r.id, ms(r.latency()))
	var sum time.Duration
	for _, p := range parts {
		fmt.Fprintf(&b, "%-32s %10.3f ms\n", p.name, ms(p.d))
		sum += p.d
	}
	fmt.Fprintf(&b, "%-32s %10.3f ms\n", "sum", ms(sum))
	return ms(r.sent.Sub(r.due)), b.String()
}

// delta is b minus a for the cumulative /v1/stats counters.
func delta(a, b server.Stats) server.Stats {
	d := b
	d.Requests -= a.Requests
	d.Coalesced -= a.Coalesced
	d.Rejected -= a.Rejected
	d.Timeouts -= a.Timeouts
	d.Batches -= a.Batches
	d.Queries -= a.Queries
	d.Completed -= a.Completed
	d.Aborted -= a.Aborted
	d.TotalSteps -= a.TotalSteps
	d.StepsSaved -= a.StepsSaved
	d.JumpsTaken -= a.JumpsTaken
	d.EngineNS -= a.EngineNS
	d.Share.Lookups -= a.Share.Lookups
	d.Share.LookupHits -= a.Share.LookupHits
	d.Cache.Hits -= a.Cache.Hits
	d.Cache.Misses -= a.Cache.Misses
	return d
}
