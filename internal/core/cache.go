package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"

	"javasim/internal/codec"
	"javasim/internal/vm"
	"javasim/internal/workload"
)

// Fingerprint returns the content hash that identifies one (spec,
// canonical config) run everywhere results are shared: the engine's
// in-memory LRU and the on-disk result store both key by it. The config
// is canonicalized first, so configurations that only differ in
// unresolved zero values (Threads 0 vs the default 4, say) map to the
// same fingerprint. The second return is false for runs that cannot be
// cached — those carrying a trace sink or lock profiler, whose value is
// the side-effecting event stream.
func Fingerprint(spec workload.Spec, cfg vm.Config) (string, bool) {
	return runKey(spec, cfg)
}

// runKey fingerprints one (spec, config) pair for the engine's result
// cache. The config is canonicalized first, so configurations that only
// differ in unresolved zero values (Threads 0 vs the default 4, say) map
// to the same entry.
func runKey(spec workload.Spec, cfg vm.Config) (string, bool) {
	return canonKey(spec, cfg.Canonical())
}

// keySchema is the sha256 of the field paths and types of workload.Spec
// and vm.Config as codec.Walk reports them. It seeds every fingerprint,
// so renaming, reordering or retyping a field changes every key: the
// encodings name no fields, and keys from another schema must not match.
var keySchema = sync.OnceValues(func() ([sha256.Size]byte, error) {
	h := sha256.New()
	line := func(path string, t reflect.Type) { fmt.Fprintln(h, path, t) }
	err := errors.Join(
		codec.Walk(reflect.TypeFor[workload.Spec](), line),
		codec.Walk(reflect.TypeFor[vm.Config](), line))
	return [sha256.Size]byte(h.Sum(nil)), err
})

// canonKey is runKey for a config that is already canonical: the hex
// sha256 of the key schema followed by the codec encodings of spec and
// canon. Runs that attach side-effecting sinks — a trace sink or a lock
// profiler — are not cacheable: replaying a memoized Result would
// silently skip their event streams. Neither is a run whose spec or
// config does not encode.
func canonKey(spec workload.Spec, canon vm.Config) (string, bool) {
	if canon.TraceSink != nil || canon.LockProfiler != nil {
		return "", false
	}
	ks := keyScratches.Get().(*keyScratch)
	defer keyScratches.Put(ks)
	ks.spec, ks.canon = spec, canon
	var key string
	b, ok := keyPrefix(ks.buf[:0], &ks.spec)
	if ok {
		b, ok = appendKey(b, &ks.canon, &key)
	}
	ks.buf = b
	return key, ok
}

// keyPrefix appends what every fingerprint of spec starts with to b:
// the key schema and the codec encoding of spec. A sweep encodes it
// once for all its points.
func keyPrefix(b []byte, spec *workload.Spec) ([]byte, bool) {
	schema, err := keySchema()
	if err != nil {
		return b, false
	}
	b, err = codec.Append(append(b, schema[:]...), spec)
	return b, err == nil
}

// appendKey completes the fingerprint whose keyPrefix is b: it appends
// the encoding of the canonical config canon and sets *key to the hex
// sha256 of the whole. The bytes are returned for reuse.
func appendKey(b []byte, canon *vm.Config, key *string) ([]byte, bool) {
	b, err := codec.Append(b, canon)
	if err != nil {
		return b, false
	}
	sum := sha256.Sum256(b)
	var hexKey [2 * sha256.Size]byte
	hex.Encode(hexKey[:], sum[:])
	*key = string(hexKey[:])
	return b, true
}

// appendSweepInput appends what a sweep's fingerprints depend on beyond
// its spec to b: the base config and the axis, whether the points vary
// rate and each point's thread count and rate. The fingerprint memo keys
// by keyPrefix followed by these bytes.
func appendSweepInput(b []byte, base *vm.Config, open bool, points []Point) ([]byte, bool) {
	b, err := codec.Append(b, base)
	if err != nil {
		return b, false
	}
	axis := byte('t')
	if open {
		axis = 'r'
	}
	b = binary.AppendUvarint(append(b, axis), uint64(len(points)))
	for _, p := range points {
		b = binary.AppendVarint(b, int64(p.Threads))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Rate))
	}
	return b, true
}

// keyScratch is the working set of canonKey and of a sweep's
// fingerprints, pooled so that a fingerprint allocates only its key: the
// walker needs addressable copies of the spec and the config, and the
// encoding buffer is reused.
type keyScratch struct {
	spec  workload.Spec
	canon vm.Config
	buf   []byte
}

var keyScratches = sync.Pool{New: func() any { return new(keyScratch) }}

// artifactKey encodes everything a renderer reads for one output or
// report, so equal keys render equal tables: the kind (its type tells an
// Output from the ReportKind of the same name), the codec encoding of
// the report spec, the labels, and the key of every sweep in in.sweeps
// and in.repeats, in order — each the digest of its points'
// fingerprints. Every part is self-delimiting, so the bytes themselves
// are the memo key and need no hash. The second return is false when
// some sweep has no key (a point carried a trace sink or lock profiler),
// and the artifact must be rendered fresh.
func artifactKey(kind any, in *inputs) (string, bool) {
	b := make([]byte, 0, 512)
	switch k := kind.(type) {
	case Output:
		b = binary.AppendUvarint(append(b, 'o'), uint64(len(k)))
		b = append(b, k...)
	case ReportKind:
		b = binary.AppendUvarint(append(b, 'r'), uint64(len(k)))
		b = append(b, k...)
	default:
		return "", false
	}
	b, err := codec.Append(b, in.spec)
	if err == nil {
		b, err = codec.Append(b, &in.labels)
	}
	if err != nil {
		return "", false
	}
	for _, sweeps := range [][]*Sweep{in.sweeps, in.repeats} {
		b = binary.AppendUvarint(b, uint64(len(sweeps)))
		for _, sw := range sweeps {
			if sw.key == "" {
				return "", false
			}
			b = append(b, sw.key...)
		}
	}
	return string(b), true
}

// sweepKey digests the fingerprints of a sweep's points, in order, or
// returns "" when some point has none.
func sweepKey(fingerprints []string) string {
	b := make([]byte, 0, len(fingerprints)*2*sha256.Size)
	for _, fp := range fingerprints {
		if fp == "" {
			return ""
		}
		b = append(b, fp...)
	}
	sum := sha256.Sum256(b)
	return string(sum[:])
}

// lru is a concurrency-safe least-recently-used map from string keys to
// values. The engine keeps three, all sized by WithCache: the result
// cache (runKey fingerprints to run results), the fingerprint memo
// (sweep inputs to their points' fingerprints) and the artifact memo
// (artifactKey encodings to rendered tables). Values are stored by pointer
// and shared between callers; they are treated as immutable once stored.
// A nil *lru is a disabled cache: it never hits and stores nothing.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *lruEntry[V]
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

// newLRU returns an LRU holding up to capacity entries, or nil (a
// disabled cache) when capacity is zero or below.
func newLRU[V any](capacity int) *lru[V] {
	if capacity <= 0 {
		return nil
	}
	return &lru[V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

// get returns the value stored under key, refreshing its recency.
func (c *lru[V]) get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val under key, evicting the least recently used entry when
// the cache is full.
func (c *lru[V]) put(key string, val V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
}

// len reports the number of stored entries.
func (c *lru[V]) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// flight tracks one in-progress simulation so concurrent requests for the
// same fingerprint wait for the leader instead of simulating twice.
type flight struct {
	done chan struct{}
	res  *vm.Result
	err  error
}

// flightGroup is a minimal singleflight keyed by runKey fingerprints.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
}

// join returns the flight for key and whether the caller is its leader.
// The leader must call leave once the work settles.
func (g *flightGroup) join(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.flights == nil {
		g.flights = make(map[string]*flight)
	}
	if fl, ok := g.flights[key]; ok {
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	g.flights[key] = fl
	return fl, true
}

// leave publishes the leader's outcome and wakes the waiters.
func (g *flightGroup) leave(key string, fl *flight, res *vm.Result, err error) {
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	fl.res, fl.err = res, err
	close(fl.done)
}
