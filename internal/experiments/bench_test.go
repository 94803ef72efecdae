package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestBenchGridSmall runs the full mode grid on one tiny preset and checks
// the structural invariants every BENCH_runs.json consumer relies on.
func TestBenchGridSmall(t *testing.T) {
	rep, err := BenchGrid(Options{
		Scale: 0.002, Threads: 4, Benchmarks: []string{"_200_check"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != BenchSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	// 4 modes + the DQ+cache row + the Serve-cold/Serve-warm/Serve-soak
	// rows.
	if len(rep.Runs) != 8 {
		t.Fatalf("%d runs, want 8", len(rep.Runs))
	}
	wantModes := []string{"SeqCFL", "ParCFL-naive", "ParCFL-D", "ParCFL-DQ",
		"ParCFL-DQ+cache", "Serve-cold", "Serve-warm", "Serve-soak"}
	queries := rep.Runs[0].Queries
	for i, r := range rep.Runs {
		if r.Mode != wantModes[i] {
			t.Fatalf("run %d mode = %q, want %q", i, r.Mode, wantModes[i])
		}
		if r.Bench != "_200_check" || r.WallNS <= 0 || r.Queries == 0 {
			t.Fatalf("run %d malformed: %+v", i, r)
		}
		serving := i >= 5 && i <= 7
		if !serving && r.Queries != queries {
			t.Fatalf("run %d: %d queries, Seq saw %d", i, r.Queries, queries)
		}
		if r.StepsWalked != r.TotalSteps-r.StepsSaved {
			t.Fatalf("run %d: walked %d != total %d - saved %d", i, r.StepsWalked, r.TotalSteps, r.StepsSaved)
		}
		if serving && (r.QPS <= 0 || r.P50NS <= 0 || r.P99NS < r.P50NS) {
			t.Fatalf("serving run %d has no throughput shape: %+v", i, r)
		}
	}
	soak := rep.Runs[7]
	if soak.TargetQPS <= 0 || soak.P999NS < soak.P99NS || soak.Completed == 0 {
		t.Fatalf("soak row malformed: %+v", soak)
	}
	if shares := soak.AdmitShare + soak.QueueShare + soak.SolveShare + soak.FanoutShare; shares < 0.99 || shares > 1.01 {
		t.Fatalf("soak phase shares sum to %.4f, want 1: %+v", shares, soak)
	}
	if soak.OverloadRate > 0.01 {
		t.Fatalf("soak overloaded %.2f%% of requests at a sub-saturation rate", 100*soak.OverloadRate)
	}
	cold, warm := rep.Runs[5], rep.Runs[6]
	if warm.StepsWalked >= cold.StepsWalked {
		t.Fatalf("warm serve walked %d steps, cold walked %d — no snapshot reuse win",
			warm.StepsWalked, cold.StepsWalked)
	}
	if warm.CacheHitRate <= cold.CacheHitRate {
		t.Fatalf("warm serve cache hit-rate %.3f not above cold %.3f",
			warm.CacheHitRate, cold.CacheHitRate)
	}
	seq := rep.Runs[0]
	if seq.ModeledSpeedup != 1 || seq.WallSpeedup != 1 {
		t.Fatalf("Seq row must be its own baseline: %+v", seq)
	}
	if d := rep.Runs[2]; d.ShareFinished == 0 || d.ShareLookups == 0 {
		t.Fatalf("D row has no sharing activity: %+v", d)
	}
	if c := rep.Runs[4]; c.CacheHits+c.CacheMisses == 0 {
		t.Fatalf("cache row has no cache activity: %+v", c)
	}
}

// TestBenchReportJSONRoundTrip: the report must survive marshal/unmarshal
// bit-exactly — the contract behind the BENCH_runs.json artifact.
func TestBenchReportJSONRoundTrip(t *testing.T) {
	orig := &BenchReport{
		Schema: BenchSchema, Generated: "2026-01-02T03:04:05Z",
		Host: "linux/amd64 8 cores", Scale: 0.01, Budget: 75000, Threads: 4,
		Runs: []BenchRun{{
			Bench: "_209_db", Mode: "ParCFL-DQ", Threads: 4, WallNS: 123456789,
			Queries: 1339, Completed: 1300, Aborted: 39, EarlyTerminations: 7,
			TotalSteps: 9999999, StepsWalked: 7000000, StepsSaved: 2999999, JumpsTaken: 4242,
			ModeledSpeedup: 8.1, WallSpeedup: 2.3, RS: 0.43,
			ShareFinished: 100, ShareUnfinished: 5, ShareLookups: 5000, ShareHits: 900, ShareHitRate: 0.18,
			CacheHits: 10, CacheMisses: 90, CacheHitRate: 0.1,
			NumGroups: 77, AvgGroupSize: 17.4,
		}},
	}
	data, err := json.MarshalIndent(orig, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, &back) {
		t.Fatalf("round trip changed the report:\n%+v\nvs\n%+v", orig, back)
	}
	// Field names are part of the schema contract: spot-check the wire keys.
	for _, key := range []string{
		`"schema"`, `"wall_ns"`, `"early_terminations"`, `"steps_walked"`,
		`"modeled_speedup"`, `"r_s"`, `"share_hit_rate"`, `"cache_hit_rate"`,
		`"avg_group_size"`,
	} {
		if !bytes.Contains(data, []byte(key)) {
			t.Fatalf("wire format lost key %s:\n%s", key, data)
		}
	}
}

// TestBenchWritesJSONFile: the Bench experiment honours Options.JSONPath;
// the file it writes is a history that parses back under the current schema
// and accumulates across runs instead of clobbering.
func TestBenchWritesJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_runs.json")
	var out bytes.Buffer
	err := BenchTrajectory(Options{
		Scale: 0.002, Threads: 2, Benchmarks: []string{"_200_check"},
		Out: &out, JSONPath: path, Label: "first", GitRev: "abc1234",
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := LoadBenchHistory(path)
	if err != nil {
		t.Fatalf("artifact does not parse: %v", err)
	}
	if h.Schema != BenchHistorySchema || len(h.Reports) != 1 {
		t.Fatalf("artifact = schema %q, %d reports", h.Schema, len(h.Reports))
	}
	rep := h.Reports[0]
	if rep.Schema != BenchSchema || len(rep.Runs) != 8 {
		t.Fatalf("report = schema %q, %d runs", rep.Schema, len(rep.Runs))
	}
	if rep.Label != "first" || rep.GitRev != "abc1234" {
		t.Fatalf("report stamp = label %q rev %q", rep.Label, rep.GitRev)
	}
	if !bytes.Contains(out.Bytes(), []byte("wrote")) {
		t.Fatalf("no confirmation line in output: %s", out.String())
	}

	// A second run with a different label appends; re-running an existing
	// label replaces its entry, keeping the history at two reports.
	for _, label := range []string{"second", "second"} {
		err = BenchTrajectory(Options{
			Scale: 0.002, Threads: 2, Benchmarks: []string{"_200_check"},
			Out: &out, JSONPath: path, Label: label,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	h, err = LoadBenchHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Reports) != 2 {
		t.Fatalf("history has %d reports, want 2 (append then replace)", len(h.Reports))
	}
	if h.Reports[0].Label != "first" || h.Reports[1].Label != "second" {
		t.Fatalf("history labels = %q, %q", h.Reports[0].Label, h.Reports[1].Label)
	}
}

// TestBenchHistoryLegacyAndMerge: a legacy v1 single-report file loads as a
// one-entry history, and unlabelled reports always append.
func TestBenchHistoryLegacyAndMerge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_runs.json")
	legacy := BenchReport{Schema: BenchSchema, Generated: "2026-01-02T03:04:05Z", Scale: 0.01}
	data, err := json.MarshalIndent(legacy, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := LoadBenchHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.Schema != BenchHistorySchema || len(h.Reports) != 1 || h.Reports[0].Generated != legacy.Generated {
		t.Fatalf("legacy wrap = %+v", h)
	}

	// Unlabelled reports append (no label to match on).
	if _, err := WriteBenchHistory(path, BenchReport{Schema: BenchSchema}); err != nil {
		t.Fatal(err)
	}
	if n, err := WriteBenchHistory(path, BenchReport{Schema: BenchSchema}); err != nil || n != 3 {
		t.Fatalf("unlabelled merge: n=%d err=%v, want 3 reports", n, err)
	}

	// A missing file is an empty history, not an error.
	empty, err := LoadBenchHistory(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || len(empty.Reports) != 0 {
		t.Fatalf("missing file: %+v, %v", empty, err)
	}

	// Garbage schemas are rejected.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBenchHistory(bad); err == nil {
		t.Fatal("unknown schema accepted")
	}
}
