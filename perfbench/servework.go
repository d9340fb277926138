package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"javasim/internal/core"
	"javasim/internal/serve"
	"javasim/internal/store"
)

// serveWorkload drives an in-process daemon over loopback HTTP. Each
// round starts a daemon over an empty store and submits the replay
// plans three times: cold, again on the same daemon (memory hits), and
// again after a restart over the same store (disk hits).
type serveWorkload struct {
	probe  probe
	client http.Client
	bodies [][]byte // round 0's plans, generated by setup
	d      *daemon  // started by setup, used by round 0
	ref    [][]byte // round 0's cold artifacts, per plan
}

// daemon is one serve.Server over an engine and a disk store, listening
// on a loopback port.
type daemon struct {
	dir    string
	st     *store.Store
	ts     *timedStore // nil when untraced
	eng    *core.Engine
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
}

func (w *serveWorkload) start(ctx context.Context, dir string, traced bool) (*daemon, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, st: st, served: make(chan error, 1)}
	if traced {
		d.ts = &timedStore{st: st}
	}
	d.eng = core.NewEngine(w.probe.engineOptions(false, core.WithDiskStore(diskTier(st, d.ts)))...)
	if d.srv, err = serve.New(serve.Options{Engine: d.eng, Store: st}); err != nil {
		st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	if err := w.healthz(ctx, d); err != nil {
		d.stop(ctx)
		return nil, err
	}
	return d, nil
}

func (w *serveWorkload) healthz(ctx context.Context, d *daemon) error {
	resp, err := w.get(ctx, d.base+"/v1/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// stop closes the listener and every connection, then drains the
// server, which flushes the store, and closes the store. Every job has
// finished by then; a graceful HTTP shutdown would instead wait up to 5 s
// for connections the client dialed but never used.
func (d *daemon) stop(ctx context.Context) error {
	err := d.hs.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := d.st.Close(); err == nil {
		err = serr
	}
	return err
}

// newStoreDir names a fresh store directory under the run's temporary
// directory.
func (r *run) newStoreDir() string {
	r.dirs++
	return filepath.Join(r.tmp, fmt.Sprintf("store-%d", r.dirs))
}

// setup generates and validates round 0's plans and brings a daemon up
// over an empty store, ready once healthz answers.
func (w *serveWorkload) setup(ctx context.Context, r *run) error {
	bodies, err := replayRound(r.opts.seed, 0, r.opts.tiny)
	if err != nil {
		return err
	}
	start := time.Now()
	for _, b := range bodies {
		if _, err := decodePlan(b); err != nil {
			return err
		}
	}
	r.layer("core.validate_ms", ms(time.Since(start))/float64(len(bodies)))
	w.bodies = bodies
	w.d, err = w.start(ctx, r.newStoreDir(), false)
	return err
}

// jobResult is one job as its client saw it.
type jobResult struct {
	id        string
	text      []byte
	state     string
	simulated int64
	rejected  bool // the daemon refused the submission
	err       error
	// Client-side span boundaries: POST sent, job id received, job-done
	// received, artifacts read.
	t0, t1, t2, t3 time.Time
}

func (j *jobResult) total() time.Duration { return j.t3.Sub(j.t0) }

func (w *serveWorkload) round(ctx context.Context, r *run, i int, traced bool) error {
	bodies, d := w.bodies, w.d
	w.d = nil
	if i > 0 {
		var err error
		if bodies, err = replayRound(r.opts.seed, i, r.opts.tiny); err != nil {
			return err
		}
	}
	if d == nil {
		var err error
		if d, err = w.start(ctx, r.newStoreDir(), traced); err != nil {
			return err
		}
	}
	r.heap.takePeak()
	alloc0 := allocatedBytes()

	start, cpu0 := time.Now(), processCPU()
	cold := w.runJobs(ctx, d, bodies)
	coldWall := time.Since(start)
	flushStart := time.Now()
	if err := d.st.Flush(); err != nil {
		r.tally.record("store flush", err.Error())
	}
	flushMS := ms(time.Since(flushStart))
	coldCPU := processCPU() - cpu0
	pts, _ := w.probe.take()
	r.tally.checkPoints(pts)
	texts := make([][]byte, len(cold))
	for k, j := range cold {
		texts[k] = j.text
		r.tally.record("cold job", j.problems(nil)...)
	}
	if i == 0 {
		w.ref = texts
		r.digest = digest(bytes.Join(texts, nil))
	}

	settle()
	cpu0 = processCPU()
	mem := w.runJobs(ctx, d, bodies)
	memCPU := processCPU() - cpu0
	if r.opts.faults.artifact && i == 0 {
		mem[0].text = corrupt(mem[0].text)
	}
	w.checkHits(r, "mem-hit job", mem, texts)

	// Restart: drain, then a new daemon over the same store.
	coldStats, coldStore := d.eng.CacheStats(), d.st
	if err := d.stop(ctx); err != nil {
		return fmt.Errorf("stop daemon: %w", err)
	}
	if r.opts.faults.storeEntry && i == 0 {
		if err := corruptEntry(d.dir); err != nil {
			return err
		}
	}
	d2, err := w.start(ctx, d.dir, traced)
	if err != nil {
		return err
	}
	settle()
	cpu0 = processCPU()
	disk := w.runJobs(ctx, d2, bodies)
	diskCPU := processCPU() - cpu0
	w.checkHits(r, "disk-hit job", disk, texts)
	if c := d2.st.Stats().Corrupt; c > 0 {
		r.tally.record("disk store", fmt.Sprintf("%d corrupt entries", c))
	}
	hitPts, _ := w.probe.take()
	r.tally.checkPoints(hitPts)
	jobs := len(cold) + len(mem) + len(disk)
	allocMB := float64(allocatedBytes()-alloc0) / mib / float64(jobs)
	peakMB := float64(r.heap.takePeak()) / mib
	if err := r.stopProfile(); err != nil {
		return err
	}
	diskStats := d2.eng.CacheStats()
	storeStats := d2.st.Stats()
	if err := d2.stop(ctx); err != nil {
		return fmt.Errorf("stop daemon: %w", err)
	}

	tiers := map[string][]jobResult{tierCold: cold, tierMem: mem, tierDisk: disk}
	if !traced {
		r.planS.add(0, coldCPU.Seconds())
		r.wallPlanS.add(0, coldWall.Seconds())
		r.addPoints(0, pts)
		r.allocMB.add(0, allocMB)
		r.peakMB.add(0, peakMB)
		r.addTierCPU(tierCold, coldCPU, len(cold), false)
		r.addTierCPU(tierMem, memCPU, len(mem), false)
		r.addTierCPU(tierDisk, diskCPU, len(disk), false)
		for tier, js := range tiers {
			for _, j := range js {
				if j.err == nil {
					r.wallJobMS[tier] = append(r.wallJobMS[tier], ms(j.total()))
				}
			}
		}
		os.RemoveAll(d.dir)
		return nil
	}

	r.tracedPlanS.add(0, coldCPU.Seconds())
	r.layer("core.simulations", float64(len(pts)+len(hitPts)))
	r.layer("core.cache_misses", float64(coldStats.Misses+diskStats.Misses))
	r.layer("core.cache_mem_hits", float64(coldStats.MemoryHits+diskStats.MemoryHits))
	r.layer("core.cache_disk_hits", float64(coldStats.DiskHits+diskStats.DiskHits))
	r.layer("core.cache_shared", float64(coldStats.Shared+diskStats.Shared))
	r.layer("store.flush_ms", flushMS)
	r.layer("store.corrupt", float64(storeStats.Corrupt))
	r.storeLayers(coldStore)
	r.pool("store.put_ms", d.ts.puts...)
	r.pool("store.get_ms", d2.ts.gets...)
	rejected, accounted := 0, 0.0
	for _, tier := range []string{tierCold, tierMem, tierDisk} {
		var total, submit, wait, artifacts []float64
		for _, j := range tiers[tier] {
			if j.rejected {
				rejected++
			}
			if j.err != nil {
				continue
			}
			total = append(total, ms(j.total()))
			submit = append(submit, ms(j.t1.Sub(j.t0)))
			wait = append(wait, ms(j.t2.Sub(j.t1)))
			artifacts = append(artifacts, ms(j.t3.Sub(j.t2)))
			parent := r.addSpan("job."+tier, j.id, 0, j.t0, j.t3)
			r.addSpan("submit", j.id, parent, j.t0, j.t1)
			r.addSpan("wait", j.id, parent, j.t1, j.t2)
			r.addSpan("artifacts", j.id, parent, j.t2, j.t3)
		}
		r.pool("serve.submit_ms", submit...)
		r.pool("serve.wait_ms", wait...)
		r.pool("serve.artifacts_ms", artifacts...)
		accounted += ratio(median(submit)+median(wait)+median(artifacts), median(total)) / 3
	}
	r.layer("serve.rejected", float64(rejected))
	r.layer("serve.accounted_share", accounted)
	r.simLayers(pts)
	r.tapeLayers(pts)
	os.RemoveAll(d.dir)
	return nil
}

// problems checks one job: it must be accepted and finish done, and, for
// cache-tier jobs, simulate nothing and serve the cold job's artifacts.
func (j *jobResult) problems(want []byte) []string {
	if j.err != nil {
		return []string{j.err.Error()}
	}
	if j.state != "done" {
		return []string{"job " + j.id + " ended " + j.state}
	}
	if want == nil {
		return nil
	}
	bad := sameText("job "+j.id, j.text, want)
	if j.simulated != 0 {
		bad = append(bad, fmt.Sprintf("job %s simulated %d points", j.id, j.simulated))
	}
	return bad
}

func (w *serveWorkload) checkHits(r *run, op string, jobs []jobResult, want [][]byte) {
	for k := range jobs {
		r.tally.record(op, jobs[k].problems(want[k])...)
	}
}

// runJobs submits every body through parallelism closed-loop clients and
// returns the jobs in body order.
func (w *serveWorkload) runJobs(ctx context.Context, d *daemon, bodies [][]byte) []jobResult {
	out := make([]jobResult, len(bodies))
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < parallelism; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				out[k] = w.job(ctx, d, bodies[k])
			}
		}()
	}
	for k := range bodies {
		next <- k
	}
	close(next)
	wg.Wait()
	return out
}

// job submits one plan, follows its SSE stream to the terminal event,
// then fetches its text artifacts.
func (w *serveWorkload) job(ctx context.Context, d *daemon, body []byte) jobResult {
	j := jobResult{t0: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/plans", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return j
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		j.err = err
		return j
	}
	var accepted struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		j.rejected = true
		j.err = fmt.Errorf("submit rejected: %s", resp.Status)
		return j
	}
	j.id = accepted.ID
	j.t1 = time.Now()

	if j.state, j.simulated, j.err = w.await(ctx, d, j.id); j.err != nil {
		return j
	}
	j.t2 = time.Now()

	resp, err = w.get(ctx, d.base+"/v1/plans/"+j.id+"/artifacts?format=text")
	if err != nil {
		j.err = err
		return j
	}
	j.text, j.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if j.err == nil && resp.StatusCode != http.StatusOK {
		j.err = fmt.Errorf("artifacts: %s", resp.Status)
	}
	j.t3 = time.Now()
	return j
}

// await reads a job's SSE stream until its terminal job-* event and
// returns the final state and the number of points the job simulated.
func (w *serveWorkload) await(ctx context.Context, d *daemon, id string) (string, int64, error) {
	resp, err := w.get(ctx, d.base+"/v1/plans/"+id+"/events")
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	terminal := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: job-") {
			terminal = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && terminal {
			var snap struct {
				State     string
				Simulated int64
			}
			if err := json.Unmarshal([]byte(data), &snap); err != nil {
				return "", 0, err
			}
			io.Copy(io.Discard, resp.Body)
			return snap.State, snap.Simulated, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", 0, err
	}
	return "", 0, fmt.Errorf("job %s: event stream ended without a terminal event", id)
}

func (w *serveWorkload) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return w.client.Do(req)
}

// finish runs round 0's plans in process and checks that the daemon
// served byte-identical artifacts; a traced run also takes the plan-level
// layers (render, report, fit) from these executions.
func (w *serveWorkload) finish(ctx context.Context, r *run) error {
	bodies, err := replayRound(r.opts.seed, 0, r.opts.tiny)
	if err != nil {
		return err
	}
	for k, body := range bodies {
		p, err := decodePlan(body)
		if err != nil {
			return err
		}
		eng := core.NewEngine(w.probe.engineOptions(r.opts.trace)...)
		start := time.Now()
		pr, err := eng.RunPlan(ctx, p)
		if err != nil {
			r.tally.record("in-process plan", err.Error())
			continue
		}
		rendered := time.Now()
		text := render(pr)
		cold, writeDur := time.Since(start), time.Since(rendered)
		pts, evs := w.probe.take()
		r.tally.record("daemon vs in-process", sameText(p.Name, w.ref[k], text)...)
		if r.opts.trace {
			r.planLayers(pr, pts, evs, start, cold, writeDur)
		}
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.d != nil {
		w.d.stop(context.Background())
		w.d = nil
	}
	w.client.CloseIdleConnections()
}
