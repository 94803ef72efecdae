package obs

import (
	"crypto/rand"
	"encoding/hex"
)

// W3C Trace Context (https://www.w3.org/TR/trace-context/) support: parcfl
// speaks the `traceparent` header so its per-request traces compose with
// external tracers: an operator can join a parcfl request trace against
// whatever the caller's own tracing backend recorded.
//
// Only version 00 is emitted; any well-formed future version is accepted
// (per spec, an unknown version parses as 00 when the tail matches).

// TraceParentHeader is the W3C Trace Context request/response header name.
const TraceParentHeader = "traceparent"

// TraceParent is a parsed version-00 traceparent value.
type TraceParent struct {
	TraceID string // 32 lowercase hex chars, not all zero
	SpanID  string // 16 lowercase hex chars, not all zero
	Flags   byte   // bit 0 = sampled
}

// String renders the header value: 00-<trace-id>-<span-id>-<flags>.
func (tp TraceParent) String() string {
	var flags [1]byte
	flags[0] = tp.Flags
	return "00-" + tp.TraceID + "-" + tp.SpanID + "-" + hex.EncodeToString(flags[:])
}

// Valid reports whether the fields form a legal traceparent (well-sized
// lowercase hex, ids not all zero).
func (tp TraceParent) Valid() bool {
	return isHexID(tp.TraceID, 32) && isHexID(tp.SpanID, 16)
}

// ParseTraceParent parses a traceparent header value. It returns ok=false on
// anything malformed (wrong field sizes, non-hex, all-zero ids, the invalid
// version ff) — callers treat that as "no incoming trace" and mint fresh ids
// rather than propagating garbage.
func ParseTraceParent(v string) (TraceParent, bool) {
	// version(2) - trace-id(32) - span-id(16) - flags(2); future versions may
	// append "-..." suffixes, which version-00 parsers must tolerate.
	if len(v) < 55 {
		return TraceParent{}, false
	}
	if v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return TraceParent{}, false
	}
	ver := v[0:2]
	if !isHex(ver) || ver == "ff" {
		return TraceParent{}, false
	}
	if ver == "00" && len(v) != 55 {
		return TraceParent{}, false
	}
	if len(v) > 55 && v[55] != '-' {
		return TraceParent{}, false
	}
	tp := TraceParent{TraceID: v[3:35], SpanID: v[36:52]}
	flags := v[53:55]
	if !isHex(flags) || !tp.Valid() {
		return TraceParent{}, false
	}
	b, _ := hex.DecodeString(flags)
	tp.Flags = b[0]
	return tp, true
}

// MintTraceParent mints a fresh sampled traceparent with random ids
// (crypto/rand; a failed read degrades to a fixed non-zero id rather than
// panicking — observability must never take the request path down).
func MintTraceParent() TraceParent {
	return TraceParent{TraceID: randHex(16), SpanID: randHex(8), Flags: 0x01}
}

// MintSpanID mints a fresh random 16-hex-char span id.
func MintSpanID() string { return randHex(8) }

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		for i := range b {
			b[i] = 0x42
		}
	}
	return hex.EncodeToString(b)
}

// isHexID reports whether s is exactly n lowercase hex chars and not all
// zero (all-zero trace/span ids are invalid per spec).
func isHexID(s string, n int) bool {
	if len(s) != n || !isHex(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return true
		}
	}
	return false
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
