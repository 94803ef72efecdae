// Package repl implements the interactive query shell behind cmd/parcfl:
// demand queries (pts/flows/alias/explain) issued line by line over a loaded
// program, the workflow of an IDE or debugging client.
package repl

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"parcfl/internal/autopsy"
	"parcfl/internal/cfl"
	"parcfl/internal/frontend"
	"parcfl/internal/obs"
	"parcfl/internal/pag"
	"parcfl/internal/ptcache"
	"parcfl/internal/share"
)

// Shell holds one interactive session's state.
type Shell struct {
	lo     *frontend.Lowered
	solver *cfl.Solver
	store  *share.Store
	cache  *ptcache.Cache
	budget int
	out    *bufio.Writer

	byName map[string]pag.NodeID

	// heat aggregates every query's budget attribution (the session solver
	// always profiles); last remembers the most recent result per node so
	// `autopsy` can dissect it without re-solving.
	heat *autopsy.Collector
	last map[pag.NodeID]cfl.Result

	// sink receives counters, histograms and spans; nil until SetObs or the
	// first `trace on`. traceFile is the pending span-trace destination set
	// by `trace on <file>`, flushed by `trace off` or session end.
	sink      *obs.Sink
	traceFile string
}

// New creates a shell over a lowered program. Queries run with the given
// budget and with data sharing and result caching enabled (the session is
// long-lived, so the caches pay off across commands).
func New(lo *frontend.Lowered, budget int, out io.Writer) *Shell {
	store := share.NewStore(share.DefaultConfig())
	cache := ptcache.New(64)
	sh := &Shell{
		lo:     lo,
		store:  store,
		cache:  cache,
		budget: budget,
		out:    bufio.NewWriter(out),
		byName: map[string]pag.NodeID{},
		heat:   autopsy.NewCollector(lo.Graph, budget),
		last:   map[pag.NodeID]cfl.Result{},
	}
	sh.rebuildSolver()
	for id := 0; id < lo.Graph.NumNodes(); id++ {
		sh.byName[lo.Graph.Node(pag.NodeID(id)).Name] = pag.NodeID(id)
	}
	return sh
}

// rebuildSolver recreates the session solver from the current store, cache
// and sink (solvers are stateless between queries, so a rebuild never loses
// warm state — that lives in the store and cache).
func (sh *Shell) rebuildSolver() {
	sh.solver = cfl.New(sh.lo.Graph, cfl.Config{
		Budget:  sh.budget,
		Share:   sh.store,
		Cache:   sh.cache,
		Obs:     sh.sink,
		Worker:  0,
		Profile: true,
	})
}

// SetObs attaches an observability sink (nil-safe) to the session's jmp
// store, result cache and solver, so a debug endpoint can watch jmp
// insertions, cache hit-rates, query latency histograms and (when span
// tracing is enabled) per-traversal spans live. The solver is rebuilt so
// spans attribute to worker 0; the jmp store and result cache carry over.
func (sh *Shell) SetObs(sink *obs.Sink) {
	sh.sink = sink
	sh.store.SetObs(sink)
	sh.cache.SetObs(sink)
	sink.AttachHeat(sh.heat)
	sh.rebuildSolver()
}

// Obs returns the attached observability sink (nil when none was set).
func (sh *Shell) Obs() *obs.Sink { return sh.sink }

// Heat returns the session's autopsy collector (always non-nil); cmd/parcfl
// serialises it on exit for -heat-out/-autopsy-out.
func (sh *Shell) Heat() *autopsy.Collector { return sh.heat }

// Banner prints the session header.
func (sh *Shell) Banner() {
	fmt.Fprintf(sh.out, "loaded: %d nodes, %d edges, %d queryable locals; type `help`\n",
		sh.lo.Graph.NumNodes(), sh.lo.Graph.NumEdges(), len(sh.lo.AppQueryVars))
	sh.out.Flush()
}

// Run reads commands from in until EOF or quit.
func (sh *Shell) Run(in io.Reader) {
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(sh.out, "> ")
		sh.out.Flush()
		if !sc.Scan() {
			fmt.Fprintln(sh.out)
			sh.flushTrace()
			sh.out.Flush()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			sh.flushTrace()
			sh.out.Flush()
			return
		}
		sh.Execute(line)
		sh.out.Flush()
	}
}

// traceCmd implements `trace on <file>` / `trace off`. Tracing can start and
// stop repeatedly within one session; each `trace off` (or session end with
// tracing active) writes the spans collected since the matching `trace on`.
func (sh *Shell) traceCmd(args []string) {
	switch {
	case len(args) == 2 && args[0] == "on":
		if sh.sink == nil {
			sh.SetObs(obs.New(obs.Config{Workers: 1, TraceCap: 1 << 16}))
		}
		sh.sink.EnableSpans(1, 1<<16)
		sh.traceFile = args[1]
		fmt.Fprintf(sh.out, "tracing to %s (stop with `trace off` or quit)\n", sh.traceFile)
	case len(args) == 1 && args[0] == "off":
		if sh.traceFile == "" {
			fmt.Fprintln(sh.out, "tracing is not on")
			return
		}
		sh.flushTrace()
	default:
		fmt.Fprintln(sh.out, "usage: trace on <file> | trace off")
	}
}

// recordCmd implements `record on [interval]` / `record off`: the session's
// flight recorder (see obs.Recorder). The recorder stays attached to the
// sink after `record off`, so a later trace export still merges its history
// as Perfetto counter tracks; `record on` again replaces it with a fresh one.
func (sh *Shell) recordCmd(args []string) {
	switch {
	case len(args) >= 1 && args[0] == "on":
		iv := obs.DefaultSampleInterval
		if len(args) == 2 {
			d, err := time.ParseDuration(args[1])
			if err != nil || d <= 0 {
				fmt.Fprintf(sh.out, "bad interval %q (want e.g. 50ms)\n", args[1])
				return
			}
			iv = d
		}
		if sh.sink == nil {
			sh.SetObs(obs.New(obs.Config{Workers: 1, TraceCap: 1 << 16}))
		}
		if rec := sh.sink.FlightRecorder(); rec.Running() {
			fmt.Fprintf(sh.out, "already recording (every %v); `record off` first\n", rec.Interval())
			return
		}
		rec := obs.NewRecorder(sh.sink, obs.RecorderConfig{Interval: iv})
		sh.sink.AttachRecorder(rec)
		rec.Start()
		fmt.Fprintf(sh.out, "flight recorder on (sampling every %v; watch /debug/timeseries, stop with `record off`)\n", iv)
	case len(args) == 1 && args[0] == "off":
		rec := sh.sink.FlightRecorder()
		if rec == nil {
			fmt.Fprintln(sh.out, "flight recorder is not on")
			return
		}
		rec.Stop()
		ts := rec.Snapshot()
		fmt.Fprintf(sh.out, "flight recorder off: %d points x %d series (%d overwritten)\n",
			len(ts.Points), len(ts.Series), ts.Dropped)
	default:
		fmt.Fprintln(sh.out, "usage: record on [interval] | record off")
	}
}

// autopsyCmd implements `autopsy <var>`: a structured budget post-mortem of
// the most recent query on that node (re-solving if none was issued yet) —
// outcome, step breakdown, the unfinished jmp that fired an early
// termination, the partial frontier, and the dominant nodes and fields.
func (sh *Shell) autopsyCmd(args []string) {
	if len(args) != 1 {
		fmt.Fprintln(sh.out, "usage: autopsy <var>")
		return
	}
	v, ok := sh.node(args[0])
	if !ok {
		return
	}
	r, seen := sh.last[v]
	if !seen {
		r = sh.solver.PointsTo(v, pag.EmptyContext)
		sh.record(r)
	}
	rep := autopsy.FromResult(sh.lo.Graph, sh.budget, &r)
	if rep == nil {
		fmt.Fprintln(sh.out, "no attribution recorded for this query")
		return
	}
	if err := rep.WriteText(sh.out); err != nil {
		fmt.Fprintf(sh.out, "autopsy: %v\n", err)
	}
}

// heatCmd implements `heat [top-k]` and `heat dot <file>` over the session's
// accumulated budget attribution.
func (sh *Shell) heatCmd(args []string) {
	if len(args) == 2 && args[0] == "dot" {
		f, err := os.Create(args[1])
		if err != nil {
			fmt.Fprintf(sh.out, "heat dot: %v\n", err)
			return
		}
		err = sh.lo.Graph.WriteDOTOpts(f, sh.heat.DOTOptions(sh.store))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(sh.out, "heat dot: %v\n", err)
			return
		}
		fmt.Fprintf(sh.out, "heat overlay written to %s\n", args[1])
		return
	}
	k := 10
	if len(args) == 1 {
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 {
			fmt.Fprintln(sh.out, "usage: heat [top-k] | heat dot <file>")
			return
		}
		k = n
	} else if len(args) > 1 {
		fmt.Fprintln(sh.out, "usage: heat [top-k] | heat dot <file>")
		return
	}
	h := sh.heat.Heat()
	if h.Queries == 0 {
		fmt.Fprintln(sh.out, "no queries profiled yet (run pts/flows first)")
		return
	}
	fmt.Fprintf(sh.out, "queries   %d (%d completed, %d aborted, %d early-terminated)\n",
		h.Queries, h.Completed, h.Aborted, h.EarlyTerminated)
	fmt.Fprintf(sh.out, "steps     %d total, %d attributed\n", h.TotalSteps, h.AttributedSteps)
	fmt.Fprintf(sh.out, "breakdown traversal=%d match=%d approx=%d jmp=%d cache=%d\n",
		h.TraversalSteps, h.MatchSteps, h.ApproxSteps, h.JmpSteps, h.CacheSteps)
	if len(h.Nodes) > 0 {
		fmt.Fprintln(sh.out, "hot nodes")
		for i, n := range h.Nodes {
			if i >= k {
				break
			}
			fmt.Fprintf(sh.out, "  %-40s %8d steps  %5.1f%%\n", n.Name, n.Steps, n.Share*100)
		}
	}
	if len(h.Fields) > 0 {
		fmt.Fprintln(sh.out, "hot fields")
		for i, f := range h.Fields {
			if i >= k {
				break
			}
			fmt.Fprintf(sh.out, "  %-40s %8d steps\n", f.Label, f.Steps)
		}
	}
	if len(h.Jmp) > 0 {
		fmt.Fprintln(sh.out, "jmp store")
		for i, j := range h.Jmp {
			if i >= k {
				break
			}
			fmt.Fprintf(sh.out, "  %s(%s, %s): %d takes (%d steps), %d expands",
				j.Dir, j.Name, j.Ctx, j.Takes, j.StepsCharged, j.Expands)
			if j.ETs > 0 {
				fmt.Fprintf(sh.out, ", %d ETs (s=%d)", j.ETs, j.S)
			}
			fmt.Fprintln(sh.out)
		}
	}
}

// flushTrace writes and clears the pending trace file, if any.
func (sh *Shell) flushTrace() {
	if sh.traceFile == "" || sh.sink == nil {
		return
	}
	file := sh.traceFile
	sh.traceFile = ""
	if err := obs.WriteTraceFile(file, sh.sink); err != nil {
		fmt.Fprintf(sh.out, "trace: %v\n", err)
	} else {
		fmt.Fprintf(sh.out, "trace written to %s (load in ui.perfetto.dev or chrome://tracing)\n", file)
	}
	sh.sink.DisableSpans()
}

// record folds a query result into the session heat profile and remembers
// it for `autopsy`.
func (sh *Shell) record(r cfl.Result) {
	sh.heat.Record(&r)
	sh.last[r.Node] = r
}

func (sh *Shell) node(name string) (pag.NodeID, bool) {
	id, ok := sh.byName[name]
	if !ok {
		fmt.Fprintf(sh.out, "unknown node %q (try `vars` or `objs`)\n", name)
	}
	return id, ok
}

func (sh *Shell) printSet(prefix string, r cfl.Result) {
	status := ""
	if r.Aborted {
		status = " [out of budget — partial]"
	}
	fmt.Fprintf(sh.out, "%s{", prefix)
	for i, o := range r.Objects() {
		if i > 0 {
			fmt.Fprint(sh.out, ", ")
		}
		fmt.Fprint(sh.out, sh.lo.Graph.Node(o).Name)
	}
	fmt.Fprintf(sh.out, "}  (%d steps%s)\n", r.Steps, status)
}

// Execute runs a single command line.
func (sh *Shell) Execute(line string) {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		fmt.Fprint(sh.out, `commands:
  pts <var>             points-to set of a variable
  flows <obj>           variables an allocation site flows to
  alias <var> <var>     may-alias check
  explain <var> <obj>   why does var point to obj?
  explainflows <obj> <var>  why does obj flow to var?
  autopsy <var>         budget post-mortem of the last query on var
  heat [top-k]          session PAG heat profile (budget attribution)
  heat dot <file>       write the PAG with heat/jmp overlays as DOT
  vars [substr]         list queryable variables (filtered)
  objs [substr]         list allocation sites (filtered)
  stats                 graph and session statistics
  trace on <file>       start span tracing; write Chrome trace JSON to file
  trace off             stop tracing and write the pending trace file
  record on [interval]  start the flight recorder (default 50ms sampling)
  record off            stop the flight recorder
  quit
`)
	case "trace":
		sh.traceCmd(args)
	case "record":
		sh.recordCmd(args)
	case "pts":
		if len(args) != 1 {
			fmt.Fprintln(sh.out, "usage: pts <var>")
			return
		}
		if v, ok := sh.node(args[0]); ok {
			t0 := sh.sink.Now()
			r := sh.solver.PointsTo(v, pag.EmptyContext)
			if sh.sink.Enabled() {
				sh.sink.Observe(obs.HistQueryNS, sh.sink.Now()-t0)
				sh.sink.Observe(obs.HistQuerySteps, int64(r.Steps))
				sh.sink.Span(obs.SpQuery, 0, t0, int64(v), int64(r.Steps), int64(r.JumpsTaken))
			}
			sh.record(r)
			sh.printSet(fmt.Sprintf("pts(%s) = ", args[0]), r)
			if r.Aborted {
				fmt.Fprintf(sh.out, "(dissect with `autopsy %s`)\n", args[0])
			}
		}
	case "flows":
		if len(args) != 1 {
			fmt.Fprintln(sh.out, "usage: flows <obj>")
			return
		}
		if o, ok := sh.node(args[0]); ok {
			r := sh.solver.FlowsTo(o, pag.EmptyContext)
			sh.record(r)
			fmt.Fprintf(sh.out, "flowsTo(%s) = {", args[0])
			seen := map[pag.NodeID]bool{}
			first := true
			for _, nc := range r.PointsTo {
				if seen[nc.Node] {
					continue
				}
				seen[nc.Node] = true
				if !first {
					fmt.Fprint(sh.out, ", ")
				}
				first = false
				fmt.Fprint(sh.out, sh.lo.Graph.Node(nc.Node).Name)
			}
			fmt.Fprintf(sh.out, "}  (%d steps)\n", r.Steps)
		}
	case "alias":
		if len(args) != 2 {
			fmt.Fprintln(sh.out, "usage: alias <var> <var>")
			return
		}
		a, ok1 := sh.node(args[0])
		b, ok2 := sh.node(args[1])
		if ok1 && ok2 {
			al, exact := sh.solver.Alias(a, b, pag.EmptyContext)
			note := ""
			if !exact {
				note = " (budget-bounded; may-alias over-approximation)"
			}
			fmt.Fprintf(sh.out, "alias(%s, %s) = %v%s\n", args[0], args[1], al, note)
		}
	case "explain":
		if len(args) != 2 {
			fmt.Fprintln(sh.out, "usage: explain <var> <obj>")
			return
		}
		v, ok1 := sh.node(args[0])
		o, ok2 := sh.node(args[1])
		if !ok1 || !ok2 {
			return
		}
		steps, ok := sh.solver.Explain(v, pag.EmptyContext, o)
		if !ok {
			fmt.Fprintf(sh.out, "%s does not point to %s\n", args[0], args[1])
			return
		}
		for i, st := range steps {
			arrow := ""
			if i > 0 {
				arrow = fmt.Sprintf("  <-%s- ", st.Edge)
			}
			fmt.Fprintf(sh.out, "%s%s%s\n", strings.Repeat(" ", i), arrow, sh.lo.Graph.Node(st.Node).Name)
		}
	case "explainflows":
		if len(args) != 2 {
			fmt.Fprintln(sh.out, "usage: explainflows <obj> <var>")
			return
		}
		o, ok1 := sh.node(args[0])
		v, ok2 := sh.node(args[1])
		if !ok1 || !ok2 {
			return
		}
		steps, ok := sh.solver.ExplainFlows(o, pag.EmptyContext, v)
		if !ok {
			fmt.Fprintf(sh.out, "%s does not flow to %s\n", args[0], args[1])
			return
		}
		for i, st := range steps {
			arrow := ""
			if i > 0 {
				arrow = fmt.Sprintf("  -%s-> ", st.Edge)
			}
			fmt.Fprintf(sh.out, "%s%s%s\n", strings.Repeat(" ", i), arrow, sh.lo.Graph.Node(st.Node).Name)
		}
	case "autopsy":
		sh.autopsyCmd(args)
	case "heat":
		sh.heatCmd(args)
	case "vars", "objs":
		substr := ""
		if len(args) > 0 {
			substr = args[0]
		}
		count := 0
		for id := 0; id < sh.lo.Graph.NumNodes() && count < 40; id++ {
			n := sh.lo.Graph.Node(pag.NodeID(id))
			isVar := n.Kind.IsVariable()
			if (cmd == "vars") != isVar {
				continue
			}
			if n.Kind == pag.KindUnfinished || !strings.Contains(n.Name, substr) {
				continue
			}
			fmt.Fprintln(sh.out, " ", n.Name)
			count++
		}
		if count == 40 {
			fmt.Fprintln(sh.out, "  ... (filter with a substring)")
		}
	case "stats":
		g := sh.lo.Graph
		fmt.Fprintf(sh.out, "graph: %d nodes, %d edges, %d fields, %d call sites\n",
			g.NumNodes(), g.NumEdges(), len(g.Fields()), g.NumCallSites())
		fmt.Fprintf(sh.out, "budget: %d steps/query\n", sh.budget)
		if rec := sh.sink.FlightRecorder(); rec != nil {
			ts := rec.Snapshot()
			state := "stopped"
			if rec.Running() {
				state = fmt.Sprintf("sampling every %v", rec.Interval())
			}
			fmt.Fprintf(sh.out, "flight recorder: %s, %d points x %d series\n",
				state, len(ts.Points), len(ts.Series))
		}
	default:
		fmt.Fprintf(sh.out, "unknown command %q (try `help`)\n", cmd)
	}
}
