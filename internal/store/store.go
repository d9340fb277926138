// Package store persists simulation results in a content-addressed
// on-disk layout keyed by the engine's (spec, canonical-config)
// fingerprints (core.Fingerprint). It is the durable tier behind the
// engine's in-memory LRU: write-through from completed simulations,
// read-through on cache misses, shared by every process pointed at the
// same directory — so no fingerprint any client has ever run is
// simulated twice, across engines, daemons, or restarts.
//
// Layout: one JSON entry per fingerprint at
//
//	<dir>/<fp[0:2]>/<fp>.json
//
// where each entry is a version-stamped JSON envelope {Version,
// Fingerprint, Result} and Result is the result's internal/codec
// encoding, carried as base64. Entries are immutable once written — the
// fingerprint is a hash of everything that determines the result, so a
// rewrite can only ever produce the same bytes (modulo schema version).
//
// Writes are write-behind: Put enqueues, a background writer persists
// entries with the temp-file+rename idiom (readers never observe a
// partial entry), and Flush/Close drain the queue — the serving
// daemon's graceful shutdown calls Close before exiting.
//
// Reads are corruption-tolerant by design: a truncated file, garbage
// bytes, a schema-version mismatch, a fingerprint that does not match
// its filename, or a payload that does not decode all count as a miss
// (and a Corrupt tick in Stats), never an error. The engine then
// re-simulates and rewrites the entry.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"javasim/internal/codec"
	"javasim/internal/vm"
)

// Version stamps every entry with the result-schema generation. Bump it
// when the payload encoding or vm.Result changes shape (the payload
// names no fields, so any added, removed or reordered field is
// incompatible): old entries then read as misses and are lazily
// replaced by re-simulation, instead of decoding into wrong fields.
const Version = 3

// entryExt is the on-disk entry suffix.
const entryExt = ".json"

// entry is the on-disk envelope around one result.
type entry struct {
	Version     int
	Fingerprint string
	Result      []byte // the vm.Result, encoded by codec.Marshal
}

// Stats are the store's lifetime counters, all monotone.
type Stats struct {
	// Hits and Misses count Get outcomes; Corrupt is the subset of
	// misses caused by an unreadable, undecodable, version-mismatched,
	// or misaddressed entry.
	Hits, Misses, Corrupt int64
	// Writes counts entries persisted; WriteErrors counts entries the
	// writer failed to persist (the store keeps serving — it is a
	// cache, and the first error is also reported by Flush/Close).
	Writes, WriteErrors int64
}

// Store is a content-addressed result store rooted at one directory.
// All methods are safe for concurrent use; results passed to Put and
// returned by Get must be treated as immutable.
type Store struct {
	dir string

	mu      sync.Mutex
	cond    *sync.Cond
	pending map[string]*vm.Result // queued, not yet handed to the writer
	writing map[string]*vm.Result // handed to the writer, rename not yet done
	closed  bool
	err     error // first write failure, sticky

	loopDone chan struct{}

	hits, misses, corrupt, writes, writeErrors atomic.Int64
}

// Open creates (if needed) and opens the store rooted at dir, starting
// its background writer. Call Close when done to drain pending writes.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		pending:  make(map[string]*vm.Result),
		writing:  make(map[string]*vm.Result),
		loopDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.writeLoop()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// validFingerprint accepts only the lowercase-hex hashes the engine
// produces — anything else could escape the store directory when joined
// into a path, so it is treated as not-present instead.
func validFingerprint(fp string) bool {
	if len(fp) < 4 {
		return false
	}
	for _, c := range fp {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path returns the entry path for a fingerprint.
func (s *Store) path(fp string) string {
	return filepath.Join(s.dir, fp[:2], fp+entryExt)
}

// Get returns the stored result for a fingerprint. Any failure to
// produce a fully-decoded, correctly-addressed, current-version result
// is a miss — the caller re-simulates, it never errors out.
func (s *Store) Get(fp string) (*vm.Result, bool) {
	if !validFingerprint(fp) {
		s.misses.Add(1)
		return nil, false
	}
	// A result still in the write queue is already authoritative.
	s.mu.Lock()
	if res, ok := s.pending[fp]; ok {
		s.mu.Unlock()
		s.hits.Add(1)
		return res, true
	}
	if res, ok := s.writing[fp]; ok {
		s.mu.Unlock()
		s.hits.Add(1)
		return res, true
	}
	s.mu.Unlock()

	data, err := os.ReadFile(s.path(fp))
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	var e entry
	res := new(vm.Result)
	if err := json.Unmarshal(data, &e); err != nil ||
		e.Version != Version || e.Fingerprint != fp || codec.Unmarshal(e.Result, res) != nil {
		s.corrupt.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return res, true
}

// Put queues res for persistence under fp. It returns immediately;
// Flush (or Close) waits for durability. Puts after Close are dropped,
// and concurrent Puts of the same fingerprint coalesce — last wins,
// which is harmless because equal fingerprints mean equal results.
func (s *Store) Put(fp string, res *vm.Result) {
	if res == nil || !validFingerprint(fp) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.pending[fp] = res
	s.cond.Broadcast()
}

// writeLoop drains the pending queue, one atomic entry write at a time.
func (s *Store) writeLoop() {
	defer close(s.loopDone)
	s.mu.Lock()
	for {
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		var fp string
		var res *vm.Result
		for fp, res = range s.pending {
			break
		}
		delete(s.pending, fp)
		s.writing[fp] = res
		s.mu.Unlock()

		err := s.writeEntry(fp, res)

		s.mu.Lock()
		delete(s.writing, fp)
		if err != nil {
			s.writeErrors.Add(1)
			if s.err == nil {
				s.err = err
			}
		} else {
			s.writes.Add(1)
		}
		s.cond.Broadcast() // wake Flush waiters
	}
}

// writeEntry persists one entry with the temp-file+rename idiom: a
// reader either sees the previous state or the complete new entry,
// never a torn write — even with several processes writing the same
// fingerprint concurrently (renames are atomic, and every writer
// produces equivalent bytes).
func (s *Store) writeEntry(fp string, res *vm.Result) error {
	shard := filepath.Join(s.dir, fp[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	payload, err := codec.Marshal(res)
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", fp, err)
	}
	data, err := json.Marshal(entry{Version: Version, Fingerprint: fp, Result: payload})
	if err != nil {
		return fmt.Errorf("store: encode %s: %w", fp, err)
	}
	f, err := os.CreateTemp(shard, "."+fp+".tmp-")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.path(fp))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: write %s: %w", fp, err)
	}
	return nil
}

// Flush blocks until every queued write has been persisted, then
// reports the first write error seen so far (nil in the common case).
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) > 0 || len(s.writing) > 0 {
		s.cond.Wait()
	}
	return s.err
}

// Close drains the queue, stops the background writer, and reports the
// first write error. The store must not be used after Close; late Puts
// are dropped and Gets fall through to disk reads only.
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.loopDone
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Corrupt:     s.corrupt.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrors.Load(),
	}
}

// Len counts the store's entries: those on disk plus the queued and
// in-flight writes whose files are not there yet, so a Put counts at
// once. It walks the directory, so it is a stats-endpoint convenience,
// not a hot-path call.
func (s *Store) Len() int {
	s.mu.Lock()
	unwritten := make(map[string]bool, len(s.pending)+len(s.writing))
	for fp := range s.pending {
		unwritten[fp] = true
	}
	for fp := range s.writing {
		unwritten[fp] = true
	}
	s.mu.Unlock()
	n := 0
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // a racing rename is not worth failing a count over
		}
		name := d.Name()
		if !d.IsDir() && strings.HasSuffix(name, entryExt) && !strings.HasPrefix(name, ".") {
			n++
			delete(unwritten, strings.TrimSuffix(name, entryExt))
		}
		return nil
	})
	return n + len(unwritten)
}
