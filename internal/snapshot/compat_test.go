package snapshot_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"reflect"
	"testing"

	"parcfl/internal/server"
	"parcfl/internal/snapshot"
)

// Fixtures saved by earlier builds. Their envelopes carry fields later
// builds no longer declare; gob skips those on decode.
const (
	// shardedFixture was saved by a shard-mode daemon (shard 1 of a 2-shard
	// plan over _200_check at scale 0.002) after it answered its share of the
	// census. Its envelope carries the plan and the shard identity.
	shardedFixture = "testdata/sharded-v1.snap"
	// kernelFixture was saved by a daemon running the since-removed
	// preprocessed traversal layout over _200_check at scale 0.002, after
	// it answered the first half of the census. Its envelope carries that
	// layout's serialised form.
	kernelFixture = "testdata/kernel-v1.snap"
)

// TestReadsShardedSnapshot: Read still loads a snapshot written by a
// shard-mode daemon (gob skips the fields this build no longer declares),
// and an unsharded daemon booted from it answers every census variable
// exactly as a cold daemon over the same graph does.
func TestReadsShardedSnapshot(t *testing.T) {
	data, err := os.ReadFile(shardedFixture)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture must really exercise the compatibility path: decode the
	// removed fields through a private mirror of the old envelope.
	var old struct {
		Meta      struct{ Shard, NumShards int }
		ShardPlan []byte
	}
	if err := gob.NewDecoder(bytes.NewReader(data[len(snapshot.Magic)+4:])).Decode(&old); err != nil {
		t.Fatal(err)
	}
	if old.Meta.Shard != 1 || old.Meta.NumShards != 2 || len(old.ShardPlan) == 0 {
		t.Fatalf("fixture carries shard %d/%d and a %d-byte plan; want 1/2 and a plan",
			old.Meta.Shard, old.Meta.NumShards, len(old.ShardPlan))
	}

	answersLikeCold(t, data)
}

// TestReadsKernelSnapshot: Read still loads a snapshot whose envelope
// carries the preprocessed traversal layout, ignores those bytes, and a
// daemon booted from it answers every census variable exactly as a cold
// daemon over the same graph does.
func TestReadsKernelSnapshot(t *testing.T) {
	data, err := os.ReadFile(kernelFixture)
	if err != nil {
		t.Fatal(err)
	}
	var old struct {
		HasKernel bool
		Kernel    []byte
	}
	if err := gob.NewDecoder(bytes.NewReader(data[len(snapshot.Magic)+4:])).Decode(&old); err != nil {
		t.Fatal(err)
	}
	if !old.HasKernel || len(old.Kernel) == 0 {
		t.Fatalf("fixture carries HasKernel=%v and a %d-byte layout; want both", old.HasKernel, len(old.Kernel))
	}
	answersLikeCold(t, data)
}

// answersLikeCold loads the snapshot in data twice, boots a warm daemon
// from one copy and a cold daemon over the other's graph, and requires
// both to answer the snapshot's whole census identically, with the warm
// one hitting the saved result cache.
func answersLikeCold(t *testing.T, data []byte) {
	t.Helper()
	warmSnap, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("snapshot no longer loads: %v", err)
	}
	if warmSnap.Store == nil || warmSnap.Cache == nil || len(warmSnap.Meta.QueryVars) == 0 {
		t.Fatal("fixture lost its warm store, cache or census")
	}
	coldSnap, err := snapshot.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	cfg := server.Config{Threads: 1, BatchWindow: -1, ResultCache: true}
	warm := server.NewFromSnapshot(warmSnap, cfg)
	defer warm.Close()
	coldCfg := cfg
	coldCfg.TypeLevels = coldSnap.Meta.TypeLevels
	coldCfg.Budget = coldSnap.Meta.Budget
	cold := server.New(coldSnap.Graph, coldCfg)
	defer cold.Close()

	vars := warmSnap.Meta.QueryVars
	ctx := context.Background()
	got, err := warm.QueryBatch(ctx, vars)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.QueryBatch(ctx, vars)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vars {
		g, w := got[i], want[i]
		if g.Var != w.Var || g.Aborted != w.Aborted || g.Contexts != w.Contexts ||
			!reflect.DeepEqual(g.Objects, w.Objects) {
			t.Fatalf("var %d: warm %+v, cold %+v", v, g, w)
		}
	}
	if st := warm.Stats(); st.Cache.Hits == 0 {
		t.Fatal("warm daemon never hit the fixture's result cache")
	}
}
