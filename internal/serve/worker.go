package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"sync"

	"javasim/internal/core"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// Sweep sharding: the daemon can split simulation work across child
// worker processes (javasimd -worker) instead of running everything in
// its own address space. Each worker serves a JSON request/response
// protocol over stdin/stdout — one workRequest in, one workResponse out,
// strictly in order — and the pool routes each run to a worker chosen by
// its result fingerprint, so a given (spec, config) always lands on the
// same process. The pool plugs into the engine as its Runner
// (core.WithRunner): results still flow through the in-memory LRU, the
// singleflight group, and the disk store exactly as local runs do.

// workRequest asks a worker for one simulation.
type workRequest struct {
	Spec   workload.Spec
	Config vm.Config
}

// workResponse carries the result back; exactly one of Result or Error
// is set.
type workResponse struct {
	Result *vm.Result `json:",omitempty"`
	Error  string     `json:",omitempty"`
}

// RunWorker serves the worker side of the shard protocol over r and w
// until r reaches EOF (the parent closing the pipe is the shutdown
// signal) or ctx is canceled. It is what javasimd -worker runs over
// stdin/stdout; tests drive it in-process over pipes.
func RunWorker(ctx context.Context, r io.Reader, w io.Writer) error {
	dec := json.NewDecoder(r)
	enc := json.NewEncoder(w)
	// Per-worker warm-start cache. Sweep points shard to workers by
	// fingerprint, so one worker serves many points of the same sweep
	// back to back; keeping one snapshot per vm.SnapshotKey and replaying
	// it for every later point mirrors Engine.Sweep's in-process warm
	// start. A context snapshot never changes results or fingerprints,
	// so warm worker results land in — and re-POSTed plans hit — exactly
	// the store entries cold runs would write.
	snaps := make(map[vm.SnapshotKey]*vm.Snapshot)
	for {
		var req workRequest
		if err := dec.Decode(&req); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("serve: worker decode: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		key := vm.SnapshotKeyOf(req.Spec, req.Config)
		snap, ok := snaps[key]
		if !ok {
			snap, _ = vm.NewSnapshot(req.Spec, req.Config) // nil on bad spec: run cold
			if len(snaps) >= 8 {
				// Cheap pressure valve; concurrent plans rarely
				// interleave more sweeps than this on one worker.
				clear(snaps)
			}
			snaps[key] = snap
		}
		var resp workResponse
		res, err := vm.RunContext(vm.ContextWithSnapshot(ctx, snap), req.Spec, req.Config)
		if err != nil {
			resp.Error = err.Error()
		} else {
			resp.Result = res
		}
		if err := enc.Encode(&resp); err != nil {
			return fmt.Errorf("serve: worker encode: %w", err)
		}
	}
}

// workerProc is one shard: a request/response channel to a worker,
// serialized by its mutex. A transport error marks the proc broken —
// in-flight state is unknowable after a torn response, so the pool
// stops using it and falls back to in-process simulation.
type workerProc struct {
	mu     sync.Mutex
	enc    *json.Encoder
	dec    *json.Decoder
	closer io.Closer // worker's stdin; closing it signals shutdown
	cmd    *exec.Cmd // nil for in-process (test) workers
	broken bool
}

// run performs one request/response exchange.
func (p *workerProc) run(spec workload.Spec, cfg vm.Config) (*vm.Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken {
		return nil, errWorkerBroken
	}
	if err := p.enc.Encode(workRequest{Spec: spec, Config: cfg}); err != nil {
		p.broken = true
		return nil, fmt.Errorf("serve: worker send: %w", err)
	}
	var resp workResponse
	if err := p.dec.Decode(&resp); err != nil {
		p.broken = true
		return nil, fmt.Errorf("serve: worker receive: %w", err)
	}
	if resp.Error != "" {
		return nil, errors.New(resp.Error)
	}
	if resp.Result == nil {
		p.broken = true
		return nil, errors.New("serve: worker returned neither result nor error")
	}
	return resp.Result, nil
}

var errWorkerBroken = errors.New("serve: worker process is broken")

// WorkerPool shards simulations across worker processes by result
// fingerprint. It implements core.Runner; runs that cannot be shipped
// over the wire (uncacheable ones carrying a trace sink or lock
// profiler) and runs whose worker has failed execute in-process instead,
// so a dying worker degrades throughput, never correctness.
type WorkerPool struct {
	procs []*workerProc
	logf  func(string, ...any)
}

// StartWorkerPool launches n worker processes running bin with args
// (javasimd starts itself with -worker) and returns the pool. Close
// shuts the workers down.
func StartWorkerPool(n int, bin string, args []string, logf func(string, ...any)) (*WorkerPool, error) {
	if n < 1 {
		return nil, fmt.Errorf("serve: worker pool size %d", n)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	pool := &WorkerPool{logf: logf}
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin, args...)
		stdin, err := cmd.StdinPipe()
		if err == nil {
			var stdout io.ReadCloser
			stdout, err = cmd.StdoutPipe()
			if err == nil {
				err = cmd.Start()
				if err == nil {
					pool.procs = append(pool.procs, &workerProc{
						enc: json.NewEncoder(stdin), dec: json.NewDecoder(stdout),
						closer: stdin, cmd: cmd,
					})
					continue
				}
			}
		}
		pool.Close()
		return nil, fmt.Errorf("serve: start worker %d: %w", i, err)
	}
	return pool, nil
}

// newPipePool builds a pool over pre-connected in-process transports —
// the test harness for the protocol, with RunWorker on the far side.
func newPipePool(procs []*workerProc, logf func(string, ...any)) *WorkerPool {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &WorkerPool{procs: procs, logf: logf}
}

// Size reports the number of workers (broken ones included).
func (p *WorkerPool) Size() int { return len(p.procs) }

// shard picks the worker for a fingerprint from its leading hex digits,
// so identical runs always land on the same process and its OS page
// cache.
func (p *WorkerPool) shard(fp string) *workerProc {
	v, err := strconv.ParseUint(fp[:8], 16, 64)
	if err != nil {
		return p.procs[0]
	}
	return p.procs[int(v%uint64(len(p.procs)))]
}

// Run implements core.Runner: it ships the run to its shard's worker,
// falling back to in-process simulation when the run is unshippable or
// the worker has failed.
func (p *WorkerPool) Run(ctx context.Context, spec workload.Spec, cfg vm.Config) (*vm.Result, error) {
	fp, ok := core.Fingerprint(spec, cfg)
	if !ok {
		// Uncacheable runs carry side-effecting sinks that cannot cross a
		// process boundary.
		return vm.RunContext(ctx, spec, cfg)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := p.shard(fp).run(spec, cfg)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		p.logf("serve: worker shard failed (%v), simulating %s in process", err, spec.Name)
		return vm.RunContext(ctx, spec, cfg)
	}
	return res, nil
}

// Close shuts every worker down by closing its stdin (RunWorker returns
// on EOF) and waits for the processes to exit.
func (p *WorkerPool) Close() error {
	var first error
	for _, proc := range p.procs {
		if proc.closer != nil {
			if err := proc.closer.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	for _, proc := range p.procs {
		if proc.cmd != nil {
			if err := proc.cmd.Wait(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
