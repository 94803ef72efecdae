package obs

import "testing"

// FuzzParseTraceParent: the traceparent header arrives from any HTTP
// client, so ParseTraceParent must never panic, and every value it accepts
// must be a valid traceparent that re-parses from its own String() to the
// same ids and flags — the daemon echoes that rendering back to the caller.
// Run with `go test -fuzz FuzzParseTraceParent ./internal/obs`.
func FuzzParseTraceParent(f *testing.F) {
	for _, s := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		MintTraceParent().String(),
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, v string) {
		tp, ok := ParseTraceParent(v)
		if !ok {
			if tp != (TraceParent{}) {
				t.Fatalf("rejected %q but returned %+v", v, tp)
			}
			return
		}
		if !tp.Valid() {
			t.Fatalf("accepted %q as invalid %+v", v, tp)
		}
		back, ok := ParseTraceParent(tp.String())
		if !ok || back != tp {
			t.Fatalf("%q -> %+v renders %q, which re-parses to %+v ok=%v",
				v, tp, tp.String(), back, ok)
		}
	})
}
