// Package serve is the long-running serving layer over the simulation
// engine: an HTTP daemon (cmd/javasimd) that accepts declarative plan
// JSON, executes it on a shared Engine worker pool, streams progress as
// server-sent events, and serves the rendered artifacts — with the
// engine's result cache backed by the content-addressed disk store, so
// a plan POSTed twice (even across daemon restarts) simulates nothing
// the second time.
//
// The API surface (see docs/serving.md for the full reference):
//
//	POST   /v1/plans              submit a plan (202 + job id; 503 while draining)
//	GET    /v1/plans              list jobs
//	GET    /v1/plans/{id}         one job's status
//	DELETE /v1/plans/{id}         cancel a running job
//	GET    /v1/plans/{id}/events  progress as SSE (replays history, then live)
//	GET    /v1/plans/{id}/artifacts  rendered tables (?format=text|json)
//	GET    /v1/stats              engine cache tiers, store counters, job counts
//	GET    /v1/healthz            liveness
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"javasim/internal/core"
	"javasim/internal/store"
)

// Job states.
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Options configure a Server.
type Options struct {
	// Engine executes submitted plans. Required.
	Engine *core.Engine
	// Store is the engine's disk tier, if any; Shutdown flushes it so a
	// drained daemon leaves every completed result durable. The server
	// only reports its counters — wiring it into the engine is the
	// caller's job (core.WithDiskStore), since one process may share a
	// store between several engines.
	Store *store.Store
	// MaxJobs bounds concurrently running plans; submissions beyond it
	// get 429. Zero means DefaultMaxJobs.
	MaxJobs int
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// DefaultMaxJobs bounds concurrently running plans when Options.MaxJobs
// is zero.
const DefaultMaxJobs = 16

// retainJobs bounds how many finished jobs stay listable before the
// oldest are evicted.
const retainJobs = 64

// eventBufferCap bounds the per-job replay buffer. A plan produces a few
// events per sweep point, so this comfortably covers realistic matrices;
// beyond it the oldest events are dropped and late SSE subscribers see a
// gap (the id: sequence makes the gap visible).
const eventBufferCap = 65536

// Server multiplexes plan executions over one shared Engine. Create with
// New, mount Handler on an http.Server, and call Shutdown to drain.
type Server struct {
	eng     *core.Engine
	st      *store.Store
	maxJobs int
	logf    func(string, ...any)

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // insertion order, for listing and eviction
	nextID   int
	draining bool

	running sync.WaitGroup
}

// New builds a Server over an engine.
func New(opts Options) (*Server, error) {
	if opts.Engine == nil {
		return nil, errors.New("serve: Options.Engine is required")
	}
	s := &Server{
		eng:     opts.Engine,
		st:      opts.Store,
		maxJobs: opts.MaxJobs,
		logf:    opts.Logf,
		jobs:    make(map[string]*job),
	}
	if s.maxJobs <= 0 {
		s.maxJobs = DefaultMaxJobs
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	return s, nil
}

// event is one buffered SSE frame.
type event struct {
	seq  int
	name string
	data []byte
}

// job is one submitted plan's execution record.
type job struct {
	id        string
	plan      string
	submitted time.Time

	cancel context.CancelFunc
	done   chan struct{} // closed when the run goroutine has fully settled

	mu       sync.Mutex
	events   []event
	firstSeq int // seq of events[0] (>0 once the buffer has wrapped)
	nextSeq  int
	changed  chan struct{} // closed and replaced on every append/state change
	state    string
	errMsg   string
	finished time.Time
	result   *core.PlanResult

	simulated atomic.Int64 // runs this job dispatched to the VM
	cached    atomic.Int64 // runs answered from cache tiers or shared flights
}

// append records an SSE frame and wakes subscribers.
func (j *job) append(name string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, event{seq: j.nextSeq, name: name, data: data})
	j.nextSeq++
	if len(j.events) > eventBufferCap {
		drop := len(j.events) - eventBufferCap
		j.events = j.events[drop:]
		j.firstSeq += drop
	}
	close(j.changed)
	j.changed = make(chan struct{})
}

// eventData is the wire form of one engine progress event.
type eventData struct {
	Kind      string `json:"kind"`
	Workload  string `json:"workload,omitempty"`
	Threads   int    `json:"threads,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	VirtualNS int64  `json:"virtual_ns,omitempty"`
	Artifact  string `json:"artifact,omitempty"`
	Scenario  string `json:"scenario,omitempty"`
	Plan      string `json:"plan,omitempty"`
	Error     string `json:"error,omitempty"`
}

// observe translates one engine event into the job's SSE stream and
// per-job counters.
func (j *job) observe(ev core.Event) {
	switch ev.Kind {
	case core.RunFinished:
		if ev.Err == nil {
			j.simulated.Add(1)
		}
	case core.RunCached:
		j.cached.Add(1)
	}
	d := eventData{
		Kind: ev.Kind.String(), Workload: ev.Workload, Threads: ev.Threads,
		Seed: ev.Seed, VirtualNS: int64(ev.VirtualTime),
		Artifact: ev.Artifact, Scenario: ev.Scenario, Plan: ev.Plan,
	}
	if ev.Err != nil {
		d.Error = ev.Err.Error()
	}
	j.append(d.Kind, d)
}

// jobJSON is the wire form of a job's status.
type jobJSON struct {
	ID        string     `json:"id"`
	Plan      string     `json:"plan"`
	State     string     `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	Simulated int64      `json:"simulated"`
	Cached    int64      `json:"cached"`
	Artifacts int        `json:"artifacts,omitempty"`
}

func (j *job) snapshot() jobJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := jobJSON{
		ID: j.id, Plan: j.plan, State: j.state, Submitted: j.submitted,
		Error:     j.errMsg,
		Simulated: j.simulated.Load(), Cached: j.cached.Load(),
	}
	if !j.finished.IsZero() {
		t := j.finished
		out.Finished = &t
	}
	if j.result != nil {
		out.Artifacts = len(j.result.Tables())
	}
	return out
}

// terminalEventName maps a final state to its SSE event name.
func terminalEventName(state string) string { return "job-" + state }

// finish records the job's outcome and emits the terminal SSE event.
func (j *job) finish(pr *core.PlanResult, err error) {
	state := StateDone
	msg := ""
	switch {
	case err == nil:
		// done
	case errors.Is(err, context.Canceled):
		state, msg = StateCanceled, err.Error()
	default:
		state, msg = StateFailed, err.Error()
	}
	j.mu.Lock()
	j.state, j.errMsg, j.result = state, msg, pr
	j.finished = time.Now()
	j.mu.Unlock()
	j.append(terminalEventName(state), j.snapshot())
	close(j.done)
}

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plans", s.handleSubmit)
	mux.HandleFunc("GET /v1/plans", s.handleList)
	mux.HandleFunc("GET /v1/plans/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/plans/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/plans/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/plans/{id}/artifacts", s.handleArtifacts)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": s.isDraining()})
	})
	return mux
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxPlanBytes bounds submitted plan bodies.
const maxPlanBytes = 16 << 20

// handleSubmit accepts a plan, validates it, and starts executing it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	plan, err := core.LoadPlan(http.MaxBytesReader(w, r.Body, maxPlanBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new plans")
		return
	}
	runningCount := 0
	for _, j := range s.jobs {
		if j.snapshotState() == StateRunning {
			runningCount++
		}
	}
	if runningCount >= s.maxJobs {
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, "%d plans already running (limit %d)", runningCount, s.maxJobs)
		return
	}
	s.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:        fmt.Sprintf("p%04d", s.nextID),
		plan:      plan.Name,
		submitted: time.Now(),
		cancel:    cancel,
		done:      make(chan struct{}),
		changed:   make(chan struct{}),
		state:     StateRunning,
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.running.Add(1)
	s.mu.Unlock()

	go func() {
		defer s.running.Done()
		defer cancel()
		runCtx := core.ContextWithObserver(ctx, core.ObserverFunc(j.observe))
		pr, err := s.eng.RunPlan(runCtx, plan)
		j.finish(pr, err)
		snap := j.snapshot()
		s.logf("serve: job %s (%s) %s: %d simulated, %d cached", j.id, j.plan, snap.State, snap.Simulated, snap.Cached)
	}()

	s.logf("serve: job %s accepted: plan %q, %d scenarios", j.id, plan.Name, len(plan.Scenarios))
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (j *job) snapshotState() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// evictLocked drops the oldest finished jobs beyond the retention bound.
// Callers hold s.mu.
func (s *Server) evictLocked() {
	finished := 0
	for _, id := range s.order {
		if s.jobs[id].snapshotState() != StateRunning {
			finished++
		}
	}
	if finished <= retainJobs {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if finished > retainJobs && s.jobs[id].snapshotState() != StateRunning {
			delete(s.jobs, id)
			finished--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]jobJSON, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].snapshot())
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.cancel()
	<-j.done
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleEvents streams a job's progress as server-sent events: the
// buffered history first (so a subscriber attaching after completion
// still sees the whole run), then live events until the terminal
// job-done / job-failed / job-canceled frame, which ends the stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	next := 0 // next sequence number to deliver
	for {
		j.mu.Lock()
		if next < j.firstSeq {
			next = j.firstSeq // buffer wrapped; resume at the oldest retained
		}
		pending := make([]event, len(j.events[next-j.firstSeq:]))
		copy(pending, j.events[next-j.firstSeq:])
		changed := j.changed
		j.mu.Unlock()

		terminal := false
		for _, ev := range pending {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.seq, ev.name, ev.data)
			next = ev.seq + 1
			if strings.HasPrefix(ev.name, "job-") {
				terminal = true
			}
		}
		if len(pending) > 0 {
			flusher.Flush()
		}
		if terminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// tableJSON is the wire form of one rendered table.
type tableJSON struct {
	Title   string     `json:"title"`
	Note    string     `json:"note,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// handleArtifacts serves a finished job's rendered tables. ?format=text
// reproduces cmd/javasim -plan's stdout byte for byte (tables joined by
// one blank line), so clients can diff daemon output against the CLI.
func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	state, result := j.state, j.result
	j.mu.Unlock()
	if state == StateRunning {
		writeError(w, http.StatusConflict, "job %s is still running", j.id)
		return
	}
	if result == nil {
		writeError(w, http.StatusConflict, "job %s %s without artifacts: %s", j.id, state, j.snapshot().Error)
		return
	}
	tables := result.Tables()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for i, t := range tables {
			if i > 0 {
				fmt.Fprintln(w)
			}
			t.WriteASCII(w)
		}
		return
	}
	out := make([]tableJSON, len(tables))
	for i, t := range tables {
		out[i] = tableJSON{Title: t.Title, Note: t.Note, Headers: t.Headers, Rows: t.Rows}
	}
	writeJSON(w, http.StatusOK, map[string]any{"plan": result.Plan, "tables": out})
}

// statsJSON is the /v1/stats wire form.
type statsJSON struct {
	Draining bool            `json:"draining"`
	Engine   engineStatsJSON `json:"engine"`
	Store    *storeStatsJSON `json:"store,omitempty"`
	Jobs     map[string]int  `json:"jobs"`
}

type engineStatsJSON struct {
	MemoryHits int64 `json:"memory_hits"`
	DiskHits   int64 `json:"disk_hits"`
	Shared     int64 `json:"shared"`
	Misses     int64 `json:"misses"`
	DiskWrites int64 `json:"disk_writes"`
	Entries    int   `json:"entries"`
}

type storeStatsJSON struct {
	Dir         string `json:"dir"`
	Hits        int64  `json:"hits"`
	Misses      int64  `json:"misses"`
	Corrupt     int64  `json:"corrupt"`
	Writes      int64  `json:"writes"`
	WriteErrors int64  `json:"write_errors"`
	Entries     int    `json:"entries"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.eng.CacheStats()
	out := statsJSON{
		Draining: s.isDraining(),
		Engine: engineStatsJSON{
			MemoryHits: cs.MemoryHits, DiskHits: cs.DiskHits, Shared: cs.Shared,
			Misses: cs.Misses, DiskWrites: cs.DiskWrites, Entries: cs.Entries,
		},
		Jobs: map[string]int{StateRunning: 0, StateDone: 0, StateFailed: 0, StateCanceled: 0},
	}
	if s.st != nil {
		st := s.st.Stats()
		out.Store = &storeStatsJSON{
			Dir: s.st.Dir(), Hits: st.Hits, Misses: st.Misses, Corrupt: st.Corrupt,
			Writes: st.Writes, WriteErrors: st.WriteErrors, Entries: s.st.Len(),
		}
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		out.Jobs[j.snapshotState()]++
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// Shutdown drains the server: new submissions get 503 immediately,
// running jobs get until ctx's deadline to finish (then they are
// canceled and awaited), and the disk store is flushed so every
// completed result is durable before the daemon exits. Safe to call
// once; the http.Server's own Shutdown handles connection draining.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	n := 0
	for _, j := range s.jobs {
		if j.snapshotState() == StateRunning {
			n++
		}
	}
	s.mu.Unlock()
	if n > 0 {
		s.logf("serve: draining %d running job(s)", n)
	}

	done := make(chan struct{})
	go func() {
		s.running.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.logf("serve: drain deadline reached, canceling running jobs")
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		s.mu.Unlock()
		<-done
	}
	if s.st != nil {
		if err := s.st.Flush(); err != nil {
			return fmt.Errorf("serve: flush store: %w", err)
		}
	}
	return nil
}
