// Command parcflctl is the ops CLI over a running parcfld daemon's debug
// surface — the counterpart to parcflq (queries) and parcflload (load):
//
//	$ parcflctl traces ls -outcome overload        # retained request traces
//	$ parcflctl traces get load-1-42 -o req.json   # one request, Perfetto JSON
//	$ parcflctl slo                                # burn rates per window
//	$ parcflctl statusz                            # build + process identity
//	$ parcflctl heat                               # solver heat snapshot
//	$ parcflctl bundle ls                          # diagnostic bundles
//	$ parcflctl bundle trigger -reason "paged"     # capture one now
//	$ parcflctl bundle fetch <id> -o out.tar.gz    # download one
//
// Every subcommand is a thin client over one GET endpoint, so none of the
// daemon's JSON debug endpoints require hand-rolled curl + jq. -json prints
// the wire payload verbatim for scripts; the default output is for humans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"parcfl/internal/diag"
	"parcfl/internal/obs"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "parcflctl:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: parcflctl [-addr host:port] [-json] [-timeout d] <command> [args]

commands:
  traces ls [-rid s] [-min d] [-outcome s] [-policy s] [-limit n]
              list retained request traces (newest first)
  traces get <rid> [-o file]
              fetch one request's trace as Perfetto/Chrome JSON
  slo         SLO attainment and burn rates per window
  statusz     build identity and process facts
  heat        solver heat snapshot
  bundle ls   list diagnostic bundles on the daemon
  bundle trigger [-reason s]
              capture a diagnostic bundle now
  bundle fetch <id> [-o file]
              download a bundle tar.gz
`)
	os.Exit(2)
}

// ctl carries the resolved global flags into every subcommand.
type ctl struct {
	base    string
	asJSON  bool
	timeout time.Duration
}

func main() {
	addr := flag.String("addr", "localhost:7070", "parcfld address (host:port or full URL)")
	asJSON := flag.Bool("json", false, "print the daemon's raw JSON payload instead of the human format")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline")
	flag.Usage = usage
	flag.Parse()

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := ctl{base: strings.TrimRight(base, "/"), asJSON: *asJSON, timeout: *timeout}

	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	switch args[0] {
	case "traces":
		if len(args) < 2 {
			usage()
		}
		switch args[1] {
		case "ls":
			c.tracesLs(args[2:])
		case "get":
			c.tracesGet(args[2:])
		default:
			usage()
		}
	case "slo":
		c.slo(args[1:])
	case "statusz":
		c.rawJSON("/debug/statusz", "statusz")
	case "heat":
		c.rawJSON("/debug/heat", "heat")
	case "bundle":
		if len(args) < 2 {
			usage()
		}
		switch args[1] {
		case "ls":
			c.bundleLs(args[2:])
		case "trigger":
			c.bundleTrigger(args[2:])
		case "fetch":
			c.bundleFetch(args[2:])
		default:
			usage()
		}
	default:
		usage()
	}
}

// get fetches base+path and decodes the JSON body into out (skipped when
// out is nil). Non-200 responses become errors carrying the body.
func (c ctl) get(path string, out any) error {
	hc := &http.Client{Timeout: c.timeout}
	resp, err := hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}

// rawJSON serves the statusz/heat style subcommands: fetch one endpoint,
// pretty-print it. The human format and -json agree here — these payloads
// are already flat summaries.
func (c ctl) rawJSON(path, what string) {
	var v any
	if err := c.get(path, &v); err != nil {
		fail(err)
	}
	if v == nil {
		fail(fmt.Errorf("%s: daemon returned no %s payload", path, what))
	}
	printJSON(v)
}

func (c ctl) tracesLs(args []string) {
	fs := flag.NewFlagSet("traces ls", flag.ExitOnError)
	rid := fs.String("rid", "", "only this request ID (or trace ID)")
	min := fs.Duration("min", 0, "only requests at least this slow")
	outcome := fs.String("outcome", "", "only this outcome (success, overload, deadline, error)")
	policy := fs.String("policy", "", "only this retention policy (outcome, anomaly, slow, sampled)")
	limit := fs.Int("limit", 32, "return at most N traces (0 = all retained)")
	_ = fs.Parse(args)

	q := url.Values{}
	if *rid != "" {
		q.Set("rid", *rid)
	}
	if *min > 0 {
		q.Set("min_ns", fmt.Sprint(min.Nanoseconds()))
	}
	if *outcome != "" {
		q.Set("outcome", *outcome)
	}
	if *policy != "" {
		q.Set("policy", *policy)
	}
	q.Set("limit", fmt.Sprint(*limit))

	var payload obs.TracesPayload
	if err := c.get("/debug/traces?"+q.Encode(), &payload); err != nil {
		fail(err)
	}
	if c.asJSON {
		printJSON(payload)
		return
	}
	st := payload.Store
	fmt.Printf("store      %d/%d retained (observed %d, sampled-out %d, evicted %d)\n",
		st.Retained, st.Capacity, st.Observed, st.Dropped, st.Evicted)
	var policies []string
	for p := range st.RetainedByPolicy {
		policies = append(policies, p)
	}
	sort.Strings(policies)
	for _, p := range policies {
		fmt.Printf("  by %-8s %d\n", p, st.RetainedByPolicy[p])
	}
	if st.ThresholdNS > 0 {
		fmt.Printf("slow-over  %s (live p-quantile threshold)\n", time.Duration(st.ThresholdNS))
	}
	if st.AnomalyActive {
		fmt.Println("anomaly    window ACTIVE (everything is being retained)")
	}
	if len(payload.Traces) == 0 {
		fmt.Println("no traces match")
		return
	}
	fmt.Printf("%-24s %8s %-8s %-8s %12s  %s\n", "RID", "SEQ", "OUTCOME", "POLICY", "TOTAL", "TRACE-ID")
	for _, t := range payload.Traces {
		fmt.Printf("%-24s %8d %-8s %-8s %12s  %s\n",
			t.RID, t.Seq, obs.OutcomeName(t.Outcome), t.Policy,
			time.Duration(t.TotalNS), t.TraceID)
	}
}

func (c ctl) tracesGet(args []string) {
	rid, rest := popArg(args)
	fs := flag.NewFlagSet("traces get", flag.ExitOnError)
	out := fs.String("o", "", "write the Perfetto JSON here instead of stdout")
	_ = fs.Parse(rest)
	if rid == "" && fs.NArg() == 1 {
		rid = fs.Arg(0)
	} else if rid == "" || fs.NArg() != 0 {
		fail(fmt.Errorf("traces get: exactly one <rid> argument required"))
	}

	var tf any
	if err := c.get("/debug/traces/"+url.PathEscape(rid), &tf); err != nil {
		fail(err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tf); err != nil {
		fail(err)
	}
	if *out != "" {
		fmt.Printf("trace for %s written to %s (open in ui.perfetto.dev)\n", rid, *out)
	}
}

func (c ctl) slo(args []string) {
	fs := flag.NewFlagSet("slo", flag.ExitOnError)
	_ = fs.Parse(args)

	var snap obs.SLOSnapshot
	if err := c.get("/debug/slo", &snap); err != nil {
		fail(err)
	}
	if c.asJSON {
		printJSON(snap)
		return
	}
	fmt.Printf("objectives avail %.4f, latency %.4f within %s\n",
		snap.AvailabilityObjective, snap.LatencyObjective,
		time.Duration(snap.LatencyTargetNS))
	if len(snap.Windows) == 0 {
		fmt.Println("no windows configured (daemon started without -slo?)")
		return
	}
	fmt.Printf("%-8s %8s %10s %10s %10s %10s %12s\n",
		"WINDOW", "TOTAL", "AVAIL", "BURN", "LAT-ATT", "LAT-BURN", "MEAN")
	for _, w := range snap.Windows {
		fmt.Printf("%-8s %8d %10.4f %10.2f %10.4f %10.2f %12s\n",
			time.Duration(w.WindowSec)*time.Second, w.Total,
			w.Availability, w.AvailBurnRate,
			w.LatencyAttainment, w.LatencyBurnRate,
			time.Duration(w.MeanLatencyNS))
	}
}

func (c ctl) bundleLs(args []string) {
	fs := flag.NewFlagSet("bundle ls", flag.ExitOnError)
	_ = fs.Parse(args)

	var list struct {
		Bundles []diag.BundleInfo `json:"bundles"`
	}
	if err := c.get("/debug/bundle", &list); err != nil {
		fail(err)
	}
	if c.asJSON {
		printJSON(list)
		return
	}
	if len(list.Bundles) == 0 {
		fmt.Println("no bundles captured")
		return
	}
	for _, b := range list.Bundles {
		fmt.Printf("%s  %-10s %-24s %8.1fKiB  %s\n",
			time.Unix(0, b.UnixNano).UTC().Format("2006-01-02T15:04:05Z"),
			b.Trigger, b.Reason, float64(b.SizeBytes)/1024, b.ID)
	}
}

func (c ctl) bundleTrigger(args []string) {
	fs := flag.NewFlagSet("bundle trigger", flag.ExitOnError)
	reason := fs.String("reason", "parcflctl", "reason recorded in the bundle manifest")
	_ = fs.Parse(args)

	var info diag.BundleInfo
	err := c.get("/debug/bundle?trigger=1&reason="+url.QueryEscape(*reason), &info)
	if err != nil {
		fail(err)
	}
	if c.asJSON {
		printJSON(info)
		return
	}
	fmt.Printf("captured %s (%s, %.1fKiB)\n", info.ID, info.File, float64(info.SizeBytes)/1024)
}

func (c ctl) bundleFetch(args []string) {
	id, rest := popArg(args)
	fs := flag.NewFlagSet("bundle fetch", flag.ExitOnError)
	out := fs.String("o", "", "write the tar.gz here (default bundle-<id12>.tar.gz)")
	_ = fs.Parse(rest)
	if id == "" && fs.NArg() == 1 {
		id = fs.Arg(0)
	} else if id == "" || fs.NArg() != 0 {
		fail(fmt.Errorf("bundle fetch: exactly one <id> argument required"))
	}

	hc := &http.Client{Timeout: c.timeout}
	resp, err := hc.Get(c.base + "/debug/bundle/" + url.PathEscape(id))
	if err != nil {
		fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		fail(fmt.Errorf("fetch %s: %s: %s", id, resp.Status, strings.TrimSpace(string(body))))
	}
	path := *out
	if path == "" {
		short := id
		if len(short) > 12 {
			short = short[:12]
		}
		path = "bundle-" + short + ".tar.gz"
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	_, err = io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		fail(err)
	}
	fmt.Printf("bundle %s saved to %s\n", id, path)
}

// popArg lifts a leading positional operand so both "get <rid> -o f" and
// "get -o f <rid>" work — the flag package stops parsing at the first
// non-flag argument.
func popArg(args []string) (string, []string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:]
	}
	return "", args
}
