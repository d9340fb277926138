package store

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"javasim/internal/vm"
	"javasim/internal/workload"
)

// testResult simulates one small run to use as store payload.
func testResult(t testing.TB, name string, threads int) *vm.Result {
	t.Helper()
	spec, err := workload.Registry.Get(name)
	if err != nil {
		t.Fatalf("unknown workload %s", name)
	}
	res, err := vm.Run(spec.Scale(0.02), vm.Config{Threads: threads, Seed: 42})
	if err != nil {
		t.Fatalf("simulate %s: %v", name, err)
	}
	return res
}

func mustOpen(t testing.TB, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const fpA = "aa11bb22cc33dd44"

func TestStoreRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t, "xalan", 2)

	s := mustOpen(t, dir)
	s.Put(fpA, res)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// A fresh store over the same directory — the restart case.
	s2 := mustOpen(t, dir)
	defer s2.Close()
	got, ok := s2.Get(fpA)
	if !ok {
		t.Fatal("entry missing after reopen")
	}
	if !reflect.DeepEqual(res, got) {
		t.Fatal("stored result is not DeepEqual to the original")
	}
	if n := s2.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestStoreGetServesPendingWrites(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	res := testResult(t, "xalan", 2)
	s.Put(fpA, res)
	// Immediately visible, whether or not the writer has drained yet.
	if got, ok := s.Get(fpA); !ok || !reflect.DeepEqual(res, got) {
		t.Fatal("pending write not served by Get")
	}
}

// TestStoreLenCountsPendingWrites checks that Len counts an entry from
// its Put, before and after the writer renames it into place, and that
// re-putting an entry already on disk does not count it twice.
func TestStoreLenCountsPendingWrites(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	res := testResult(t, "xalan", 2)
	fps := []string{fpA, "bb" + fpA, "cc" + fpA}
	for _, fp := range fps {
		s.Put(fp, res)
	}
	if n := s.Len(); n != len(fps) {
		t.Fatalf("Len after Put = %d, want %d", n, len(fps))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != len(fps) {
		t.Fatalf("Len after Flush = %d, want %d", n, len(fps))
	}
	s.Put(fpA, res)
	if n := s.Len(); n != len(fps) {
		t.Fatalf("Len after re-Put = %d, want %d", n, len(fps))
	}
}

func TestStoreConcurrentWritersSameFingerprint(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t, "xalan", 2)

	// Several stores over one directory, all hammering the same
	// fingerprint plus a private one each — the multi-process daemon
	// picture. Every writer produces equivalent bytes for the shared
	// entry, so last-rename-wins is correct by construction.
	const writers = 4
	stores := make([]*Store, writers)
	for i := range stores {
		stores[i] = mustOpen(t, dir)
	}
	var wg sync.WaitGroup
	for i, s := range stores {
		wg.Add(1)
		go func(i int, s *Store) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				s.Put(fpA, res)
				s.Put(fmt.Sprintf("%02x11%02x", i, j)+fpA, res)
			}
		}(i, s)
	}
	wg.Wait()
	for _, s := range stores {
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}

	s := mustOpen(t, dir)
	defer s.Close()
	got, ok := s.Get(fpA)
	if !ok || !reflect.DeepEqual(res, got) {
		t.Fatal("shared entry corrupted by concurrent writers")
	}
	if n := s.Len(); n != 1+writers*8 {
		t.Fatalf("Len = %d, want %d", n, 1+writers*8)
	}
}

func TestStoreCorruptEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t, "xalan", 2)
	s := mustOpen(t, dir)
	defer s.Close()
	s.Put(fpA, res)
	if err := s.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	path := filepath.Join(dir, fpA[:2], fpA+".json")

	corrupt := func(name string, mutate func() error) {
		t.Helper()
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		before := s.Stats()
		if _, ok := s.Get(fpA); ok {
			t.Fatalf("%s: corrupted entry served as a hit", name)
		}
		after := s.Stats()
		if after.Misses != before.Misses+1 || after.Corrupt != before.Corrupt+1 {
			t.Fatalf("%s: stats %+v -> %+v, want one miss and one corrupt tick", name, before, after)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt("truncated", func() error { return os.WriteFile(path, data[:len(data)/3], 0o644) })
	corrupt("garbage", func() error { return os.WriteFile(path, []byte("{not json"), 0o644) })

	// Recovery: rewriting the entry turns the miss back into a hit.
	s.Put(fpA, res)
	if err := s.Flush(); err != nil {
		t.Fatalf("reflush: %v", err)
	}
	if got, ok := s.Get(fpA); !ok || !reflect.DeepEqual(res, got) {
		t.Fatal("entry not recovered by rewrite")
	}
}

// TestStoreVersionMismatchInvalidates checks that an entry of another
// schema version reads as one corrupt miss, whether it is a sealed
// binary entry stamped with a later Version or a version-3 JSON
// envelope, and that a rewrite turns it back into a hit.
func TestStoreVersionMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t, "xalan", 2)
	s := mustOpen(t, dir)
	defer s.Close()
	s.Put(fpA, res)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fpA[:2], fpA+entryExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := data[len(header(fpA)) : len(data)-crcLen]
	future := append([]byte(magic), Version+1, byte(len(fpA)))
	future = seal(append(append(future, fpA...), payload...))
	v3 := fmt.Sprintf(`{"Version":3,"Fingerprint":%q,"Result":%q}`, fpA, base64.StdEncoding.EncodeToString(payload))

	for name, entry := range map[string][]byte{"future version": future, "version-3 JSON": []byte(v3)} {
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		if _, ok := s.Get(fpA); ok {
			t.Fatalf("%s entry served as a hit", name)
		}
		if after := s.Stats(); after.Misses != before.Misses+1 || after.Corrupt != before.Corrupt+1 {
			t.Fatalf("%s: stats %+v -> %+v, want one miss and one corrupt tick", name, before, after)
		}
		s.Put(fpA, res)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if got, ok := s.Get(fpA); !ok || !reflect.DeepEqual(res, got) {
			t.Fatalf("%s entry not rewritten", name)
		}
	}
}

// TestStoreEntryByteFlips flips each single byte of a valid entry (one
// bit, then all eight), then tries every truncation: each Get must be
// exactly one corrupt miss, never a hit. CRC-32 detects every error
// confined to 32 consecutive bits, so no flip can pass as a different
// result.
func TestStoreEntryByteFlips(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	s.Put(fpA, testResult(t, "xalan", 2))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fpA[:2], fpA+entryExt)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, entry []byte) {
		t.Helper()
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		_, hit := s.Get(fpA)
		after := s.Stats()
		if hit || after.Misses != before.Misses+1 || after.Corrupt != before.Corrupt+1 {
			t.Fatalf("%s: hit %v, stats %+v -> %+v; want one corrupt miss", what, hit, before, after)
		}
	}
	for i := range valid {
		for _, mask := range []byte{0x01, 0xff} {
			flipped := bytes.Clone(valid)
			flipped[i] ^= mask
			check(fmt.Sprintf("byte %d of %d ^ %#x", i, len(valid), mask), flipped)
		}
	}
	for n := range valid {
		check(fmt.Sprintf("truncation to %d of %d bytes", n, len(valid)), valid[:n])
	}
}

func TestStoreFingerprintMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	res := testResult(t, "xalan", 2)
	s := mustOpen(t, dir)
	defer s.Close()
	s.Put(fpA, res)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Copy the entry under a different fingerprint's address — as if a
	// file were renamed or a directory mangled. Content addressing must
	// reject it.
	other := "ff00" + fpA
	if err := os.MkdirAll(filepath.Join(dir, other[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, fpA[:2], fpA+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, other[:2], other+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(other); ok {
		t.Fatal("misaddressed entry served as a hit")
	}
}

func TestStoreRejectsUnsafeFingerprints(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	res := testResult(t, "xalan", 2)
	for _, fp := range []string{"", "ab", "../../etc/passwd", "AB11CD22", "zz11zz22"} {
		s.Put(fp, res)
		if _, ok := s.Get(fp); ok {
			t.Errorf("unsafe fingerprint %q accepted", fp)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("unsafe fingerprints wrote %d entries", n)
	}
}

// TestStoreDifferentialPaperSet is the end-to-end fidelity check: for
// every paper workload, a result served from the disk store must be
// DeepEqual to the freshly simulated one — byte-identical artifacts
// from either source.
func TestStoreDifferentialPaperSet(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	fresh := make(map[string]*vm.Result)
	for _, spec := range workload.PaperSet() {
		res := testResult(t, spec.Name, 2)
		fresh[spec.Name] = res
		s.Put(fingerprintFor(spec.Name), res)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	for _, spec := range workload.PaperSet() {
		got, ok := s2.Get(fingerprintFor(spec.Name))
		if !ok {
			t.Fatalf("%s: missing from reopened store", spec.Name)
		}
		if !reflect.DeepEqual(fresh[spec.Name], got) {
			t.Errorf("%s: disk-cached result diverges from fresh simulation", spec.Name)
		}
	}
}

// fingerprintFor derives a distinct valid fingerprint per workload for
// the differential test (the real engine key comes from core.Fingerprint;
// the store only cares that it is lowercase hex).
func fingerprintFor(name string) string {
	return fmt.Sprintf("%02x", []byte(name))[:4] + fpA
}
