package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"javasim/internal/core"
	"javasim/internal/store"
)

// testPlan is a tiny but representative plan: one scenario, two sweep
// points, one per-scenario output, one cross-scenario report.
const testPlan = `{
	"Name": "serve-test",
	"Seed": 7,
	"Scale": 0.02,
	"ThreadCounts": [2, 4],
	"Scenarios": [
		{"Name": "x", "Workload": "xalan", "Outputs": ["sweep"]}
	],
	"Reports": [
		{"Name": "verdict", "Kind": "classification"}
	]
}`

// testPlanPoints is how many simulations testPlan needs when nothing is
// cached.
const testPlanPoints = 2

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, baseURL, plan string) jobJSON {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/plans", "application/json", strings.NewReader(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var j jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

// consumeSSE reads a job's event stream until its terminal frame and
// returns every event name seen plus the terminal job snapshot.
func consumeSSE(t *testing.T, baseURL, id string) ([]string, jobJSON) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/plans/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: content type %q", ct)
	}
	var (
		names    []string
		terminal jobJSON
		name     string
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
			names = append(names, name)
		case strings.HasPrefix(line, "data: ") && strings.HasPrefix(name, "job-"):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &terminal); err != nil {
				t.Fatalf("terminal frame: %v", err)
			}
		}
	}
	// The server closes the stream after the terminal frame, so reaching
	// EOF with a terminal snapshot is the success path.
	if terminal.ID == "" {
		t.Fatalf("stream ended without a terminal job-* frame (events: %v)", names)
	}
	return names, terminal
}

func artifactsText(t *testing.T, baseURL, id string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/plans/" + id + "/artifacts?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifacts: status %d: %s", resp.StatusCode, body)
	}
	return string(body)
}

func getStats(t *testing.T, baseURL string) statsJSON {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsJSON
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// renderCLI renders what cmd/javasim -plan would print for a plan — the
// byte-for-byte reference for the text artifacts endpoint.
func renderCLI(t *testing.T, plan string) string {
	t.Helper()
	p, err := core.LoadPlan(strings.NewReader(plan))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.NewEngine().RunPlan(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i, tb := range pr.Tables() {
		if i > 0 {
			fmt.Fprintln(&buf)
		}
		tb.WriteASCII(&buf)
	}
	return buf.String()
}

func TestServeEndToEnd(t *testing.T) {
	eng := core.NewEngine()
	_, ts := newTestServer(t, Options{Engine: eng})

	j := submit(t, ts.URL, testPlan)
	if j.State != StateRunning || j.Plan != "serve-test" {
		t.Fatalf("submitted job: %+v", j)
	}

	names, terminal := consumeSSE(t, ts.URL, j.ID)
	if terminal.State != StateDone {
		t.Fatalf("terminal state %q (error %q)", terminal.State, terminal.Error)
	}
	if terminal.Simulated != testPlanPoints {
		t.Fatalf("first run simulated %d points, want %d", terminal.Simulated, testPlanPoints)
	}
	want := map[string]bool{"run-started": false, "run-finished": false, "sweep-point-done": false,
		"sweep-done": false, "scenario-done": false, "artifact-rendered": false, "plan-done": false,
		"job-done": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("event %q never streamed (got %v)", n, names)
		}
	}

	if got, wantText := artifactsText(t, ts.URL, j.ID), renderCLI(t, testPlan); got != wantText {
		t.Errorf("text artifacts diverge from CLI rendering:\n--- daemon ---\n%s\n--- cli ---\n%s", got, wantText)
	}

	// Second submission of the identical plan: everything is memoized, so
	// zero simulations and only cached events.
	missesBefore := eng.CacheStats().Misses
	j2 := submit(t, ts.URL, testPlan)
	_, terminal2 := consumeSSE(t, ts.URL, j2.ID)
	if terminal2.State != StateDone {
		t.Fatalf("second run: %+v", terminal2)
	}
	if terminal2.Simulated != 0 {
		t.Errorf("second run simulated %d points, want 0", terminal2.Simulated)
	}
	if terminal2.Cached != testPlanPoints {
		t.Errorf("second run cached %d points, want %d", terminal2.Cached, testPlanPoints)
	}
	if d := eng.CacheStats().Misses - missesBefore; d != 0 {
		t.Errorf("second run cost %d engine misses, want 0", d)
	}

	// JSON artifacts carry every table.
	resp, err := http.Get(ts.URL + "/v1/plans/" + j.ID + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var art struct {
		Plan   string      `json:"plan"`
		Tables []tableJSON `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&art); err != nil {
		t.Fatal(err)
	}
	if art.Plan != "serve-test" || len(art.Tables) != 2 {
		t.Errorf("json artifacts: plan %q, %d tables", art.Plan, len(art.Tables))
	}

	st := getStats(t, ts.URL)
	if st.Jobs[StateDone] != 2 || st.Engine.Misses != missesBefore {
		t.Errorf("stats after both runs: %+v", st)
	}
}

// TestServeRestartOverSharedStore pins the store contract across a
// restart: the first daemon's sweep runs down the engine's warm-start
// snapshot path, and its results must land in the content-addressed
// store under the fingerprints cold runs look up, so a fresh daemon over
// the same directory answers the re-POST entirely from disk.
func TestServeRestartOverSharedStore(t *testing.T) {
	dir := t.TempDir()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng1 := core.NewEngine(core.WithDiskStore(st1))
	srv1, ts1 := newTestServer(t, Options{Engine: eng1, Store: st1})
	j := submit(t, ts1.URL, testPlan)
	if _, terminal := consumeSSE(t, ts1.URL, j.ID); terminal.State != StateDone || terminal.Simulated != testPlanPoints {
		t.Fatalf("first daemon run: %+v, want done with %d points simulated", terminal, testPlanPoints)
	}
	text1 := artifactsText(t, ts1.URL, j.ID)
	// The engine runs the sweep warm (one shared tape per sweep), yet the
	// artifacts must match a fresh cold rendering byte for byte.
	if ref := renderCLI(t, testPlan); text1 != ref {
		t.Errorf("daemon artifacts diverge from in-process rendering:\n--- daemon ---\n%s\n--- cli ---\n%s", text1, ref)
	}
	// Graceful shutdown flushes the store before the daemon exits.
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a brand-new engine and server over the same directory.
	// Every sweep point must come from disk — zero simulations.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2 := core.NewEngine(core.WithDiskStore(st2))
	_, ts2 := newTestServer(t, Options{Engine: eng2, Store: st2})
	j2 := submit(t, ts2.URL, testPlan)
	_, terminal := consumeSSE(t, ts2.URL, j2.ID)
	if terminal.State != StateDone {
		t.Fatalf("second daemon run: %+v", terminal)
	}
	if terminal.Simulated != 0 {
		t.Errorf("after restart, %d points simulated, want 0 (all from disk)", terminal.Simulated)
	}
	cs := eng2.CacheStats()
	if cs.Misses != 0 || cs.DiskHits == 0 {
		t.Errorf("after restart: CacheStats = %+v, want Misses 0 and DiskHits > 0", cs)
	}
	if text2 := artifactsText(t, ts2.URL, j2.ID); text2 != text1 {
		t.Errorf("artifacts served from the disk store diverge from the original run")
	}
	stats := getStats(t, ts2.URL)
	if stats.Store == nil || stats.Store.Hits == 0 || stats.Store.Entries != testPlanPoints {
		t.Errorf("store stats after restart: %+v", stats.Store)
	}
}

func TestServeCancel(t *testing.T) {
	// Full-scale h2 at 16 threads runs long enough to cancel reliably.
	const slowPlan = `{
		"Name": "slow",
		"Scenarios": [{"Name": "h", "Workload": "h2", "ThreadCounts": [16], "Repeats": 60}]
	}`
	_, ts := newTestServer(t, Options{Engine: core.NewEngine()})
	j := submit(t, ts.URL, slowPlan)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/plans/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got jobJSON
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("after DELETE: state %q, want %q", got.State, StateCanceled)
	}
	// Artifacts of a canceled job are a 409, not a 500.
	aresp, err := http.Get(ts.URL + "/v1/plans/" + j.ID + "/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusConflict {
		t.Errorf("canceled job artifacts: status %d, want 409", aresp.StatusCode)
	}
}

func TestServeDrainingRejectsSubmissions(t *testing.T) {
	srv, ts := newTestServer(t, Options{Engine: core.NewEngine()})
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/plans", "application/json", strings.NewReader(testPlan))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: status %d, want 503", resp.StatusCode)
	}
	// Health keeps answering, reporting the drain.
	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h struct {
		OK       bool `json:"ok"`
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || !h.Draining {
		t.Errorf("healthz while draining: %+v", h)
	}
}

func TestServeShutdownDeadlineCancelsJobs(t *testing.T) {
	const slowPlan = `{
		"Name": "slow",
		"Scenarios": [{"Name": "h", "Workload": "h2", "ThreadCounts": [16], "Repeats": 60}]
	}`
	srv, ts := newTestServer(t, Options{Engine: core.NewEngine()})
	j := submit(t, ts.URL, slowPlan)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	jb, ok := srv.lookup(j.ID)
	if !ok {
		t.Fatal("job evicted during shutdown")
	}
	if state := jb.snapshotState(); state != StateCanceled {
		t.Errorf("after deadline shutdown: state %q, want %q", state, StateCanceled)
	}
}

func TestServeRejectsBadPlans(t *testing.T) {
	_, ts := newTestServer(t, Options{Engine: core.NewEngine()})
	for name, body := range map[string]string{
		"not json":         "{nope",
		"no scenarios":     `{"Name": "empty"}`,
		"unknown workload": `{"Scenarios": [{"Name": "x", "Workload": "no-such-benchmark"}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/plans", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/plans/p9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}
