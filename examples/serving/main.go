// Serving: the daemon workflow end to end, in one process. A
// serve.Server — the same engine-plus-HTTP layer behind cmd/javasimd —
// is started on an ephemeral port with a content-addressed disk store,
// and this program then acts as a plain HTTP client: it POSTs a plan,
// follows the job's server-sent-event stream, downloads the rendered
// artifacts, and re-submits the identical plan to show the second run
// simulating nothing — every sweep point answered from the cache tiers.
//
// Against a real daemon the client half is the same three requests:
//
//	javasimd -addr :8077 -store /var/lib/javasim/store &
//	curl -X POST --data-binary @plan.json localhost:8077/v1/plans
//	curl localhost:8077/v1/plans/p0001/events          # SSE until job-done
//	curl localhost:8077/v1/plans/p0001/artifacts?format=text
//
// See docs/serving.md for the full API and the store layout.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"javasim"
	"javasim/internal/serve"
)

const plan = `{
	"Name": "serving-demo",
	"Seed": 42,
	"Scale": 0.05,
	"ThreadCounts": [2, 4, 8],
	"Scenarios": [
		{"Name": "xalan", "Workload": "xalan", "Outputs": ["sweep"]},
		{"Name": "h2", "Workload": "h2"}
	],
	"Reports": [
		{"Name": "verdict", "Kind": "classification"}
	]
}`

func main() {
	// Daemon half: an engine with a disk-backed result cache, wrapped in
	// the serving layer. cmd/javasimd does exactly this around a real
	// net/http listener.
	dir, err := os.MkdirTemp("", "javasim-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := javasim.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	eng := javasim.NewEngine(javasim.WithDiskCache(st))
	srv, err := serve.New(serve.Options{Engine: eng, Store: st})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("daemon listening at %s, store at %s\n\n", ts.URL, dir)

	// Client half, twice: the second submission is answered entirely
	// from the result cache and disk store.
	for attempt := 1; attempt <= 2; attempt++ {
		job := submit(ts.URL)
		final := followEvents(ts.URL, job)
		fmt.Printf("run %d: job %s %s — %d simulated, %d served from cache\n",
			attempt, final.ID, final.State, final.Simulated, final.Cached)
		if attempt == 1 {
			fetchArtifacts(ts.URL, job)
		}
	}

	// Drain the write-behind queue so a failed write is reported here.
	if err := st.Flush(); err != nil {
		log.Fatal(err)
	}
	cs := eng.CacheStats()
	fmt.Printf("\nengine cache tiers: %d misses, %d memory hits, %d disk writes; store holds %d entries\n",
		cs.Misses, cs.MemoryHits, cs.DiskWrites, st.Len())
}

type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Simulated int64  `json:"simulated"`
	Cached    int64  `json:"cached"`
}

func submit(base string) string {
	resp, err := http.Post(base+"/v1/plans", "application/json", strings.NewReader(plan))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		log.Fatalf("submit: status %d", resp.StatusCode)
	}
	var j jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		log.Fatal(err)
	}
	return j.ID
}

// followEvents streams the job's SSE feed until its terminal frame,
// counting event kinds along the way.
func followEvents(base, id string) jobStatus {
	resp, err := http.Get(base + "/v1/plans/" + id + "/events")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	counts := map[string]int{}
	var name string
	var final jobStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
			counts[name]++
		case strings.HasPrefix(line, "data: ") && strings.HasPrefix(name, "job-"):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &final); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("  events: %d run-started, %d run-cached, %d sweep-point-done\n",
		counts["run-started"], counts["run-cached"], counts["sweep-point-done"])
	return final
}

func fetchArtifacts(base, id string) {
	resp, err := http.Get(base + "/v1/plans/" + id + "/artifacts")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var art struct {
		Tables []struct {
			Title string `json:"title"`
		} `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&art); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  artifacts: %d tables —", len(art.Tables))
	for _, t := range art.Tables {
		fmt.Printf(" %q", t.Title)
	}
	fmt.Println()
}
