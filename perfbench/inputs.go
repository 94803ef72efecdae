package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"parcfl"
	"parcfl/internal/engine"
	"parcfl/internal/frontend"
	"parcfl/internal/javagen"
	"parcfl/internal/pag"
	"parcfl/internal/ptcache"
	"parcfl/internal/share"
	"parcfl/internal/snapshot"
)

// budget is the per-query step budget of every workload (the paper's B).
const budget = 75000

type drawKind int

const (
	drawZipf   drawKind = iota // Zipf(1.1) over a seeded permutation of the census
	drawUnique                 // uniform without replacement
)

// workload fixes everything about a run except its seed and length.
type workload struct {
	name   string
	preset string  // javagen preset the programs are shaped after
	scale  float64 // javagen scale
	// programs is how many programs one run generates from its seed. One
	// program's census time swings by ~22% (CV) with its generator seed,
	// mostly through how many queries exhaust the budget, and a short
	// stretch of a run can be slowed by other load on the host. A run
	// reports the median program, so that runs with different seeds agree.
	programs int
	serve    bool
	rate     float64 // serve: open-loop base arrival rate, req/s
	draw     drawKind
	warm     bool // serve: boot from a snapshot taken after solving the census once
}

var workloads = map[string]workload{
	"census": {name: "census", preset: "tomcat", scale: 0.01, programs: 32},
	"serve-hot": {name: "serve-hot", preset: "_209_db", scale: 0.1, programs: 5,
		serve: true, rate: 15, draw: drawZipf, warm: true},
	"serve-cold": {name: "serve-cold", preset: "_213_javac", scale: 0.05, programs: 5,
		serve: true, rate: 20, draw: drawUnique},
}

// mix64 is the splitmix64 finaliser: it turns (run seed, index) pairs into
// well-spread derived seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed returns the seed of stream `stream` (program k's generator,
// round k's draws, ...) of the run seeded with seed.
func deriveSeed(seed int64, stream string, k int) int64 {
	h := mix64(uint64(seed))
	for _, c := range []byte(stream) {
		h = mix64(h ^ uint64(c))
	}
	return int64(mix64(h ^ uint64(k)))
}

// generate builds program k of a run: the preset's shape at the workload's
// scale, with the preset's name-derived generator seed replaced by one
// derived from the run seed.
func generate(w workload, seed int64, k int) (*parcfl.Program, int64, error) {
	pr, err := javagen.PresetByName(w.preset)
	if err != nil {
		return nil, 0, err
	}
	p := pr.Params(w.scale)
	p.Seed = deriveSeed(seed, "javagen", k)
	prog, err := javagen.Generate(p)
	if err != nil {
		return nil, 0, fmt.Errorf("generating %s: %w", w.preset, err)
	}
	return prog, p.Seed, nil
}

// names maps node names to nodes, first name wins — the daemon resolves
// query names the same way.
func names(g *pag.Graph) map[string]pag.NodeID {
	m := make(map[string]pag.NodeID, g.NumNodes())
	for id := 0; id < g.NumNodes(); id++ {
		if n := g.Node(pag.NodeID(id)).Name; n != "" {
			if _, ok := m[n]; !ok {
				m[n] = pag.NodeID(id)
			}
		}
	}
	return m
}

// servedCensus is the application census restricted to variables the
// daemon can be asked about by name (their name resolves back to them).
func servedCensus(lo *frontend.Lowered, byName map[string]pag.NodeID) []pag.NodeID {
	out := make([]pag.NodeID, 0, len(lo.AppQueryVars))
	for _, v := range lo.AppQueryVars {
		if byName[lo.Graph.Node(v).Name] == v {
			out = append(out, v)
		}
	}
	return out
}

// writeSnapshot writes the daemon's starting state for a serve workload:
// the graph with an empty jmp store and result cache, or (warm) the state
// left by solving the whole census once.
func writeSnapshot(path string, w workload, lo *frontend.Lowered) error {
	store := share.NewStore(share.DefaultConfig())
	cache := ptcache.New(64)
	if w.warm {
		engine.Run(lo.Graph, lo.AppQueryVars, engine.Config{
			Mode: engine.DQ, Threads: runtime.NumCPU(), Budget: budget,
			TypeLevels: lo.TypeLevels, Store: store, Cache: cache,
		})
	}
	return snapshot.Save(path, &snapshot.Snapshot{
		Graph: lo.Graph, Store: store, Cache: cache,
		Meta: snapshot.Meta{
			CreatedUnixNano: time.Now().UnixNano(), Label: "perfbench " + w.name,
			TypeLevels: lo.TypeLevels, QueryVars: lo.AppQueryVars, Budget: budget,
		},
	})
}

// copyFile gives every daemon boot its own copy of the snapshot: parcfld
// overwrites its -snapshot path when it shuts down.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copying %s: %w", src, err)
	}
	return out.Close()
}
