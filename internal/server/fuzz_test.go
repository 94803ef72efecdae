package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzQueryBody: /v1/query decodes request bodies from any HTTP client, so
// arbitrary bytes must never crash the daemon, and every reply must carry
// one of the statuses the API documents: 200, 400 (malformed), 404 (unknown
// variable), 413 (too large), 429 (overloaded) or 504 (deadline). Anything
// else — a 500 in particular — means the handler let an unvalidated input
// through. Run with `go test -fuzz FuzzQueryBody ./internal/server`.
func FuzzQueryBody(f *testing.F) {
	lo := genBench(f)
	srv := New(lo.Graph, Config{Threads: 1, TypeLevels: lo.TypeLevels, BatchWindow: -1, QueueDepth: 4})
	f.Cleanup(srv.Close)
	ts := httptest.NewServer(NewHandler(srv, HandlerConfig{}))
	f.Cleanup(ts.Close)

	name := lo.Graph.Node(lo.AppQueryVars[0]).Name
	for _, spec := range []QuerySpec{
		{Var: name},
		{Vars: []string{name, lo.Graph.Node(lo.AppQueryVars[1]).Name}},
		{Var: "no-such-var"},
		{Var: "0"},
		{Var: name, TimeoutMS: 1},
		{Var: name, TimeoutMS: 1 << 62},
		{Vars: []string{"a", "b", "c", "d", "e"}},
		{},
	} {
		body, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"var": "-1"}`))
	f.Add([]byte(`{"vars": null, "var": ""}`))
	f.Add([]byte(`not json`))
	f.Add([]byte{})

	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusRequestEntityTooLarge: true, http.StatusTooManyRequests: true,
		http.StatusGatewayTimeout: true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, _ := io.ReadAll(resp.Body)
		if !allowed[resp.StatusCode] {
			t.Fatalf("body %q: status %d (%s)", body, resp.StatusCode, reply)
		}
	})
}
