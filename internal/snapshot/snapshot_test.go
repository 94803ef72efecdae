package snapshot

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"parcfl/internal/engine"
	"parcfl/internal/frontend"
	"parcfl/internal/javagen"
	"parcfl/internal/pag"
	"parcfl/internal/ptcache"
	"parcfl/internal/share"
)

func genBench(t testing.TB) *frontend.Lowered {
	t.Helper()
	prg, err := javagen.Generate(javagen.Params{
		Name: "snaptest", Seed: 17, Containers: 3, CallDepth: 3,
		PayloadClasses: 4, PayloadFieldDepth: 3, AppMethods: 12, OpsPerApp: 12,
		Globals: 3, AppCallFanout: 1, HubFields: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := frontend.Lower(prg)
	if err != nil {
		t.Fatal(err)
	}
	return lo
}

func roundTrip(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestRoundTripLossless is the acceptance criterion: answers computed on a
// save→load graph (with the warm store and cache) are byte-identical to the
// resident run's — same Objects slices in the same order, which requires the
// decoded adjacency lists to preserve the original traversal order exactly.
func TestRoundTripLossless(t *testing.T) {
	lo := genBench(t)
	queries := lo.AppQueryVars

	store := share.NewStore(share.DefaultConfig())
	cache := ptcache.New(16)
	cfg := engine.Config{Mode: engine.Seq, TauF: 1, TauU: 1, Store: store, Cache: cache}
	resident, _ := engine.Run(lo.Graph, queries, cfg)

	loaded := roundTrip(t, &Snapshot{
		Graph: lo.Graph, Store: store, Cache: cache,
		Meta: Meta{Label: "test", TypeLevels: lo.TypeLevels, QueryVars: queries},
	})
	if loaded.Store == nil || loaded.Cache == nil {
		t.Fatal("store/cache missing after round trip")
	}
	if !reflect.DeepEqual(loaded.Meta.TypeLevels, lo.TypeLevels) {
		t.Fatal("TypeLevels not preserved")
	}
	if !reflect.DeepEqual(loaded.Meta.QueryVars, queries) {
		t.Fatal("QueryVars not preserved")
	}

	warmCfg := engine.Config{Mode: engine.Seq, TauF: 1, TauU: 1, Store: loaded.Store, Cache: loaded.Cache}
	warm, _ := engine.Run(loaded.Graph, loaded.Meta.QueryVars, warmCfg)
	if len(warm) != len(resident) {
		t.Fatalf("result count %d after reload, want %d", len(warm), len(resident))
	}
	for i := range resident {
		a, b := resident[i], warm[i]
		if a.Var != b.Var || a.Aborted != b.Aborted || a.Contexts != b.Contexts ||
			!reflect.DeepEqual(a.Objects, b.Objects) {
			t.Fatalf("query %d (var %d): result diverged after save→load:\nresident: %+v\nwarm:     %+v",
				i, a.Var, a, b)
		}
	}
}

// TestGraphOnlySnapshot covers the store-less/cache-less shape (a daemon
// started with sharing off still snapshots its graph).
func TestGraphOnlySnapshot(t *testing.T) {
	lo := genBench(t)
	loaded := roundTrip(t, &Snapshot{Graph: lo.Graph})
	if loaded.Store != nil || loaded.Cache != nil {
		t.Fatal("unexpected store/cache materialised")
	}
	if loaded.Graph.NumNodes() != lo.Graph.NumNodes() {
		t.Fatalf("node count %d, want %d", loaded.Graph.NumNodes(), lo.Graph.NumNodes())
	}
}

// TestMidEpochRestore is the incremental-invalidation contract: a snapshot
// taken mid-epoch restores Epoch() on load, keeps current-epoch entries,
// and drops stale-epoch entries (they are already invisible to Lookup, and
// the save must not resurrect them).
func TestMidEpochRestore(t *testing.T) {
	store := share.NewStore(share.DefaultConfig())
	staleKey := share.Key{Dir: share.Backward, Node: 1, Ctx: pag.EmptyContext}
	if !store.PutFinished(staleKey, 500, []pag.NodeCtx{{Node: 2, Ctx: pag.EmptyContext}}) {
		t.Fatal("stale put rejected")
	}

	store.BumpEpoch()
	store.BumpEpoch() // epoch 2: a mid-life snapshot, not a fresh store
	liveKey := share.Key{Dir: share.Forward, Node: 3, Ctx: pag.EmptyContext.Push(7)}
	if !store.PutFinished(liveKey, 600, []pag.NodeCtx{{Node: 4, Ctx: pag.EmptyContext}}) {
		t.Fatal("live put rejected")
	}
	liveUnf := share.Key{Dir: share.Backward, Node: 5, Ctx: pag.EmptyContext}
	if !store.PutUnfinished(liveUnf, 12345) {
		t.Fatal("live unfinished put rejected")
	}

	cache := ptcache.New(4)
	cache.Put(ptcache.Key{Dir: ptcache.Backward, Node: 1, Ctx: pag.EmptyContext},
		[]pag.NodeCtx{{Node: 2, Ctx: pag.EmptyContext}})
	cache.BumpEpoch() // cache snapshot lands at epoch 1 with no live entries

	lo := genBench(t)
	loaded := roundTrip(t, &Snapshot{Graph: lo.Graph, Store: store, Cache: cache})

	if got := loaded.Store.Epoch(); got != 2 {
		t.Fatalf("store epoch %d after reload, want 2", got)
	}
	if got := loaded.Cache.Epoch(); got != 1 {
		t.Fatalf("cache epoch %d after reload, want 1", got)
	}
	if _, ok := loaded.Store.Lookup(staleKey); ok {
		t.Fatal("stale-epoch entry resurrected by snapshot")
	}
	e, ok := loaded.Store.Lookup(liveKey)
	if !ok || e.Unfinished || e.S != 600 || len(e.Targets) != 1 || e.Targets[0].Node != 4 {
		t.Fatalf("live finished entry lost or mangled: %+v (ok=%v)", e, ok)
	}
	u, ok := loaded.Store.Lookup(liveUnf)
	if !ok || !u.Unfinished || u.S != 12345 {
		t.Fatalf("live unfinished entry lost or mangled: %+v (ok=%v)", u, ok)
	}
	if _, ok := loaded.Cache.Get(ptcache.Key{Dir: ptcache.Backward, Node: 1, Ctx: pag.EmptyContext}); ok {
		t.Fatal("stale cache entry resurrected by snapshot")
	}
}

// TestWarmStartJmpWin is the bench-facing acceptance criterion: on the same
// batch, a warm start (loaded store) must get strictly more work out of jmp
// shortcuts — more steps satisfied by shortcuts, a higher lookup hit-rate —
// and walk strictly fewer steps than a cold start. (Raw JumpsTaken can drop
// on a warm store: one mature shortcut near a query's root replaces many
// small intra-batch ones, which is the point.)
func TestWarmStartJmpWin(t *testing.T) {
	lo := genBench(t)
	queries := lo.AppQueryVars
	base := engine.Config{Mode: engine.DQ, Threads: 2, TauF: 1, TauU: 1, TypeLevels: lo.TypeLevels}

	coldStore := share.NewStore(share.DefaultConfig())
	coldCfg := base
	coldCfg.Store = coldStore
	_, cold := engine.Run(lo.Graph, queries, coldCfg)

	loaded := roundTrip(t, &Snapshot{Graph: lo.Graph, Store: coldStore,
		Meta: Meta{TypeLevels: lo.TypeLevels, QueryVars: queries}})

	warmCfg := base
	warmCfg.TypeLevels = loaded.Meta.TypeLevels
	warmCfg.Store = loaded.Store
	_, warm := engine.Run(loaded.Graph, loaded.Meta.QueryVars, warmCfg)

	coldWalked := cold.TotalSteps - cold.StepsSaved
	warmWalked := warm.TotalSteps - warm.StepsSaved
	if warm.StepsSaved <= cold.StepsSaved {
		t.Fatalf("warm start saved %d steps via jmp shortcuts, cold saved %d — no reuse win",
			warm.StepsSaved, cold.StepsSaved)
	}
	if warmWalked >= coldWalked {
		t.Fatalf("warm start walked %d steps, cold walked %d — no reuse win",
			warmWalked, coldWalked)
	}
	coldRate := float64(cold.Share.LookupHits) / float64(max(cold.Share.Lookups, 1))
	warmRate := float64(warm.Share.LookupHits) / float64(max(warm.Share.Lookups, 1))
	if warmRate <= coldRate {
		t.Fatalf("warm jmp hit-rate %.3f not above cold %.3f", warmRate, coldRate)
	}
	t.Logf("cold: walked=%d saved=%d hit-rate=%.3f; warm: walked=%d saved=%d hit-rate=%.3f",
		coldWalked, cold.StepsSaved, coldRate, warmWalked, warm.StepsSaved, warmRate)
}

// TestHeaderValidation rejects wrong magic and unknown versions.
func TestHeaderValidation(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTASNAPSHOT....."))); err == nil {
		t.Fatal("bad magic accepted")
	}
	lo := genBench(t)
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{Graph: lo.Graph}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(Magic)+3]++ // bump the version byte
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestSaveLoadFile exercises the atomic file path helpers.
func TestSaveLoadFile(t *testing.T) {
	lo := genBench(t)
	path := filepath.Join(t.TempDir(), "warm.pag")
	if err := Save(path, &Snapshot{Graph: lo.Graph, Meta: Meta{Label: "file"}}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Meta.Label != "file" || loaded.Graph.NumNodes() != lo.Graph.NumNodes() {
		t.Fatal("file round trip lost data")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.pag")); err == nil {
		t.Fatal("missing file accepted")
	}
}
