// Package snapshot persists the warm state of a resident analysis service —
// the PAG, the jmp-edge store, and the cross-query result cache — so a
// restarted process resumes with the summaries earlier queries paid for
// instead of re-paying the cold-start cost. This is the paper's whole
// economic argument (Fig. 3/4, Algorithm 2) extended across process
// lifetimes: jump edges recorded while answering one query make later
// queries cheaper, so the accumulated store is an asset worth keeping.
//
// # Format and version policy
//
// A snapshot file is a fixed ASCII magic ("PARCFLSNAP"), a big-endian
// uint32 format version, and one gob-encoded envelope. The graph is nested
// as an opaque binary blob produced by pag.WriteGob, which preserves both
// adjacency-list orders verbatim — a warm-loaded graph traverses edges in
// exactly the order the original did, which is what makes warm answers
// byte-identical to the resident run's. Store and cache entries are
// flattened to gob-friendly wire structs (contexts travel as their Key()
// strings).
//
// The version is bumped on any breaking layout change; Read rejects files
// whose version it does not understand rather than guessing. Epochs are
// preserved exactly: a snapshot taken mid-epoch restores Epoch() on load,
// and stale-epoch entries — already invisible to Lookup — are dropped at
// save time, never resurrected.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"parcfl/internal/pag"
	"parcfl/internal/ptcache"
	"parcfl/internal/share"
)

// Magic identifies a snapshot file.
const Magic = "PARCFLSNAP"

// Version is the current format version. Bump on breaking changes.
const Version = 1

// Meta carries the serving context that is not derivable from the graph:
// the scheduler's type levels, the query census (so a warm daemon can list
// and replay the workload), and the solver settings the state was recorded
// under (mixing budgets across a snapshot boundary would skew unfinished-
// entry semantics).
type Meta struct {
	// CreatedUnixNano stamps the save time.
	CreatedUnixNano int64
	// Label is a free-form name for diagnostics ("autosave", "bench", ...).
	Label string
	// TypeLevels feeds the DQ scheduler's dependence-depth heuristic.
	TypeLevels []int
	// QueryVars is the application query census of the loaded program.
	QueryVars []pag.NodeID
	// Budget and ContextK echo the solver configuration the store was
	// warmed under.
	Budget   int
	ContextK int
}

// Snapshot is the in-memory form: a frozen graph plus optional warm store
// and cache.
type Snapshot struct {
	Graph *pag.Graph
	Store *share.Store   // nil when no jmp store was saved
	Cache *ptcache.Cache // nil when no result cache was saved
	Meta  Meta
}

// Wire structs: contexts travel as Key() strings, which uniquely determine
// them (pag.ContextFromKey is the inverse).

type wireNodeCtx struct {
	Node pag.NodeID
	Ctx  string
}

type wireShareEntry struct {
	Dir        uint8
	Node       pag.NodeID
	Ctx        string
	Unfinished bool
	S          int
	Targets    []wireNodeCtx
}

type wireCacheEntry struct {
	Dir  uint8
	Node pag.NodeID
	Ctx  string
	Set  []wireNodeCtx
}

// envelope is the single gob message following the magic/version header.
type envelope struct {
	Meta  Meta
	Graph []byte // pag.WriteGob output

	HasStore     bool
	StoreCfg     share.Config
	StoreEpoch   int64
	StoreEntries []wireShareEntry

	HasCache     bool
	CacheEpoch   int64
	CacheEntries []wireCacheEntry

	// Older Version 1 files may also carry fields this build no longer
	// declares (a preprocessed traversal layout, a shard plan); gob skips
	// them on decode, so those files still load.
}

func toWireNodeCtxs(in []pag.NodeCtx) []wireNodeCtx {
	if in == nil {
		return nil
	}
	out := make([]wireNodeCtx, len(in))
	for i, nc := range in {
		out[i] = wireNodeCtx{Node: nc.Node, Ctx: nc.Ctx.Key()}
	}
	return out
}

// fromWireKey validates one decoded (node, context key) pair: the node must
// exist in a graph of numNodes nodes and the key must be a whole number of
// call sites, or pag.ContextFromKey would panic on it.
func fromWireKey(node pag.NodeID, ctx string, numNodes pag.NodeID) (pag.Context, error) {
	if node >= numNodes {
		return pag.Context{}, fmt.Errorf("snapshot: entry references unknown node %d", node)
	}
	if len(ctx)%4 != 0 {
		return pag.Context{}, fmt.Errorf("snapshot: malformed context key (%d bytes)", len(ctx))
	}
	return pag.ContextFromKey(ctx), nil
}

func fromWireNodeCtxs(in []wireNodeCtx, numNodes pag.NodeID) ([]pag.NodeCtx, error) {
	if in == nil {
		return nil, nil
	}
	out := make([]pag.NodeCtx, len(in))
	for i, nc := range in {
		ctx, err := fromWireKey(nc.Node, nc.Ctx, numNodes)
		if err != nil {
			return nil, err
		}
		out[i] = pag.NodeCtx{Node: nc.Node, Ctx: ctx}
	}
	return out, nil
}

// Write serialises the snapshot. The graph must be frozen. Store and cache
// should be quiescent for an exact export (concurrent inserts may or may not
// be included, which is safe but inexact).
func Write(w io.Writer, s *Snapshot) error {
	if s.Graph == nil {
		return fmt.Errorf("snapshot: nil graph")
	}
	var gbuf bytes.Buffer
	if err := s.Graph.WriteGob(&gbuf); err != nil {
		return err
	}
	env := envelope{Meta: s.Meta, Graph: gbuf.Bytes()}
	if s.Store != nil {
		env.HasStore = true
		env.StoreCfg = s.Store.Config()
		epoch, entries := s.Store.Export()
		env.StoreEpoch = epoch
		env.StoreEntries = make([]wireShareEntry, len(entries))
		for i, e := range entries {
			env.StoreEntries[i] = wireShareEntry{
				Dir: uint8(e.Key.Dir), Node: e.Key.Node, Ctx: e.Key.Ctx.Key(),
				Unfinished: e.Unfinished, S: e.S, Targets: toWireNodeCtxs(e.Targets),
			}
		}
	}
	if s.Cache != nil {
		env.HasCache = true
		epoch, entries := s.Cache.Export()
		env.CacheEpoch = epoch
		env.CacheEntries = make([]wireCacheEntry, len(entries))
		for i, e := range entries {
			env.CacheEntries[i] = wireCacheEntry{
				Dir: uint8(e.Key.Dir), Node: e.Key.Node, Ctx: e.Key.Ctx.Key(),
				Set: toWireNodeCtxs(e.Set),
			}
		}
	}
	if _, err := io.WriteString(w, Magic); err != nil {
		return fmt.Errorf("snapshot: writing header: %w", err)
	}
	if err := binary.Write(w, binary.BigEndian, uint32(Version)); err != nil {
		return fmt.Errorf("snapshot: writing header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(&env); err != nil {
		return fmt.Errorf("snapshot: encoding: %w", err)
	}
	return nil
}

// Read deserialises a snapshot written by Write, reconstructing the graph,
// a warm store (with its epoch and entries restored), and a warm cache.
func Read(r io.Reader) (*Snapshot, error) {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("snapshot: reading header: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a parcfl snapshot)", magic)
	}
	var version uint32
	if err := binary.Read(r, binary.BigEndian, &version); err != nil {
		return nil, fmt.Errorf("snapshot: reading header: %w", err)
	}
	if version != Version {
		return nil, fmt.Errorf("snapshot: unsupported version %d (this build reads %d)", version, Version)
	}
	var env envelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("snapshot: decoding: %w", err)
	}
	g, err := pag.ReadGob(bytes.NewReader(env.Graph))
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Graph: g, Meta: env.Meta}
	numNodes := pag.NodeID(g.NumNodes())
	for _, v := range env.Meta.QueryVars {
		if v >= numNodes {
			return nil, fmt.Errorf("snapshot: query census references unknown node %d", v)
		}
	}
	if env.HasStore {
		entries := make([]share.Exported, len(env.StoreEntries))
		for i, e := range env.StoreEntries {
			ctx, err := fromWireKey(e.Node, e.Ctx, numNodes)
			if err != nil {
				return nil, err
			}
			targets, err := fromWireNodeCtxs(e.Targets, numNodes)
			if err != nil {
				return nil, err
			}
			entries[i] = share.Exported{
				Key:        share.Key{Dir: share.Direction(e.Dir), Node: e.Node, Ctx: ctx},
				Unfinished: e.Unfinished, S: e.S, Targets: targets,
			}
		}
		s.Store = share.NewStore(env.StoreCfg)
		s.Store.Import(env.StoreEpoch, entries)
	}
	if env.HasCache {
		entries := make([]ptcache.Exported, len(env.CacheEntries))
		for i, e := range env.CacheEntries {
			ctx, err := fromWireKey(e.Node, e.Ctx, numNodes)
			if err != nil {
				return nil, err
			}
			set, err := fromWireNodeCtxs(e.Set, numNodes)
			if err != nil {
				return nil, err
			}
			entries[i] = ptcache.Exported{
				Key: ptcache.Key{Dir: ptcache.Direction(e.Dir), Node: e.Node, Ctx: ctx},
				Set: set,
			}
		}
		s.Cache = ptcache.New(64)
		s.Cache.Import(env.CacheEpoch, entries)
	}
	return s, nil
}

// Save writes the snapshot to path atomically: a temp file in the same
// directory is written, synced, and renamed over the destination, so an
// autosave racing a crash never leaves a truncated snapshot behind.
func Save(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".parcfl-snap-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = Write(tmp, s)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Load reads the snapshot at path.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	return Read(f)
}
