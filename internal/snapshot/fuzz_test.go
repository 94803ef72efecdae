package snapshot

import (
	"bytes"
	"testing"

	"parcfl/internal/engine"
	"parcfl/internal/frontend"
	"parcfl/internal/pag"
	"parcfl/internal/ptcache"
	"parcfl/internal/share"
)

// fig2Snapshot encodes a small warm snapshot of the paper's Fig. 2 program:
// graph, a jmp store and result cache filled by one DQ census (contexts
// included) — every section Read decodes.
func fig2Snapshot(tb testing.TB) []byte {
	tb.Helper()
	fig, err := frontend.BuildFig2()
	if err != nil {
		tb.Fatal(err)
	}
	lo := fig.Lowered
	store := share.NewStore(share.Config{TauF: 1, TauU: 1})
	cache := ptcache.New(4)
	engine.Run(lo.Graph, lo.AppQueryVars, engine.Config{
		Mode: engine.DQ, Threads: 1, TauF: 1, TauU: 1, TypeLevels: lo.TypeLevels,
		Store: store, Cache: cache, ResultCache: true,
	})
	var buf bytes.Buffer
	err = Write(&buf, &Snapshot{
		Graph: lo.Graph, Store: store, Cache: cache,
		Meta: Meta{Label: "fuzz-seed", TypeLevels: lo.TypeLevels, QueryVars: lo.AppQueryVars, Budget: 75000},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRead: parcfld -snapshot decodes these bytes from disk, so Read must
// never panic, and a snapshot it accepts must be safe to serve — every node
// it names exists in its graph — and must re-encode. Run with
// `go test -fuzz FuzzRead ./internal/snapshot` for continuous fuzzing; the
// seed corpus (plus testdata/fuzz/FuzzRead) runs in normal `go test`.
func FuzzRead(f *testing.F) {
	seed := fig2Snapshot(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		n := pag.NodeID(s.Graph.NumNodes())
		inRange := func(what string, v pag.NodeID) {
			if v >= n {
				t.Fatalf("accepted snapshot: %s names node %d of %d", what, v, n)
			}
		}
		for _, v := range s.Meta.QueryVars {
			inRange("query census", v)
		}
		if s.Store != nil {
			_, entries := s.Store.Export()
			for _, e := range entries {
				for _, nc := range e.Targets {
					inRange("jmp target", nc.Node)
				}
			}
		}
		if s.Cache != nil {
			_, entries := s.Cache.Export()
			for _, e := range entries {
				for _, nc := range e.Set {
					inRange("cached result", nc.Node)
				}
			}
		}
		if err := Write(&bytes.Buffer{}, s); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
	})
}
