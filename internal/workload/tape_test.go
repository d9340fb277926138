package workload

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// drainUnits takes every unit from r with a fixed round-robin thread
// order and returns them in take order. The order is deterministic so
// two runs drained the same way see the same draw sequence. Each unit's
// ops are copied out, since a run with ReuseUnitBuffers overwrites them
// on the thread's next take.
func drainUnits(t *testing.T, r *Run, threads int) []Unit {
	t.Helper()
	var units []Unit
	done := 0
	for done < threads {
		done = 0
		for tid := 0; tid < threads; tid++ {
			u, ok := r.Take(tid)
			if !ok {
				done++
				continue
			}
			units = append(units, Unit{Ops: slices.Clone(u.Ops)})
		}
	}
	return units
}

// TestTapeReplayMatchesLive pins the warm-start contract at the
// workload layer: for every registered workload, a run replaying a full
// tape hands out bit-identical units to a run generating live, whether
// the runs recycle their op buffers (the VM's mode) or not.
func TestTapeReplayMatchesLive(t *testing.T) {
	for _, spec := range Registered() {
		spec := spec.Scale(0.05)
		for _, reuse := range []bool{false, true} {
			const threads, seed = 4, 7
			tape, err := BuildTape(spec, seed, 0)
			if err != nil {
				t.Fatalf("%s: BuildTape: %v", spec.Name, err)
			}
			if tape.Len() != spec.TotalUnits {
				t.Fatalf("%s: tape holds %d units, want %d", spec.Name, tape.Len(), spec.TotalUnits)
			}
			live, err := NewRun(spec, threads, seed)
			if err != nil {
				t.Fatal(err)
			}
			taped, err := NewRun(spec, threads, seed)
			if err != nil {
				t.Fatal(err)
			}
			if reuse {
				live.ReuseUnitBuffers()
				taped.ReuseUnitBuffers()
			}
			if !taped.AttachTape(tape) {
				t.Fatalf("%s: AttachTape rejected a matching tape", spec.Name)
			}
			lu, tu := drainUnits(t, live, threads), drainUnits(t, taped, threads)
			if !reflect.DeepEqual(lu, tu) {
				for i := range lu {
					if !reflect.DeepEqual(lu[i], tu[i]) {
						t.Fatalf("%s (reuse %v): unit %d differs under tape replay:\n  live: %+v\n  tape: %+v",
							spec.Name, reuse, i, lu[i], tu[i])
					}
				}
				t.Fatalf("%s (reuse %v): unit sequences differ under tape replay", spec.Name, reuse)
			}
		}
	}
}

// TestTapeIsCompact pins the packed tape format: a full-scale xalan tape
// is at least 8x smaller than the same units held as []Unit of 48-byte
// Op records, the format tapes used to store.
func TestTapeIsCompact(t *testing.T) {
	spec := XalanSpec()
	const seed = 3
	tape, err := BuildTape(spec, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	packed := len(tape.units)*int(unsafe.Sizeof(tapeUnit{})) +
		len(tape.allocs)*int(unsafe.Sizeof(uint32(0))) +
		len(tape.locks)*int(unsafe.Sizeof(uint16(0)))

	r, err := NewRun(spec, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for {
		u, ok := r.Take(0)
		if !ok {
			break
		}
		records += int(unsafe.Sizeof(u)) + len(u.Ops)*int(unsafe.Sizeof(Op{}))
	}
	t.Logf("xalan tape: %d units, %.2f MB packed vs %.2f MB as op records (%.1fx)",
		tape.Len(), float64(packed)/(1<<20), float64(records)/(1<<20), float64(records)/float64(packed))
	if records < 8*packed {
		t.Errorf("packed tape is %d bytes, op records %d: less than 8x smaller", packed, records)
	}
}

// TestBuildTapeOverflow: a draw that does not fit its packed field
// fails the build instead of truncating, so the run can fall back to
// cold generation.
func TestBuildTapeOverflow(t *testing.T) {
	spec := XalanSpec().Scale(0.05)
	spec.SharedLocks = 1 << 17
	spec.LockOpsPerUnit = 8
	_, err := BuildTape(spec, 1, 0)
	if err == nil || !strings.Contains(err.Error(), "16-bit lock field") {
		t.Fatalf("BuildTape with %d shared locks: err = %v, want a lock-field overflow", spec.SharedLocks, err)
	}
}

// TestPackAllocRoundTrip covers the extremes of every packed field.
func TestPackAllocRoundTrip(t *testing.T) {
	for _, size := range []int32{16, 17, 4096, 8192} {
		for _, d := range []DeathSpec{{DieAfterOwnAllocs, 12}, {DieAtUnitsAhead, 0}, {DieAtUnitsAhead, 48}, {Immortal, 0}} {
			for _, site := range []int32{0, 15, NumAllocSites - 1} {
				want := Op{Kind: OpAlloc, Dur: 70, Size: size, Death: d, Site: site}
				if got := unpackAlloc(packAlloc(size, d, site), 70); got != want {
					t.Fatalf("round trip: got %+v, want %+v", got, want)
				}
			}
		}
	}
}

// TestTapeOverflowResumesLive exhausts a deliberately short tape mid-run
// and requires the resumed live generation to continue exactly where an
// untaped run's RNG streams would stand.
func TestTapeOverflowResumesLive(t *testing.T) {
	spec := XalanSpec().Scale(0.05)
	const threads, seed, tapeLen = 4, 9, 8
	tape, err := BuildTape(spec, seed, tapeLen)
	if err != nil {
		t.Fatal(err)
	}
	if tape.Len() != tapeLen {
		t.Fatalf("tape holds %d units, want %d", tape.Len(), tapeLen)
	}
	live, err := NewRun(spec, threads, seed)
	if err != nil {
		t.Fatal(err)
	}
	taped, err := NewRun(spec, threads, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !taped.AttachTape(tape) {
		t.Fatal("AttachTape rejected a matching tape")
	}
	lu, tu := drainUnits(t, live, threads), drainUnits(t, taped, threads)
	if len(lu) <= tapeLen {
		t.Fatalf("run consumed %d units; too few to overflow a %d-unit tape", len(lu), tapeLen)
	}
	if !reflect.DeepEqual(lu, tu) {
		for i := range lu {
			if !reflect.DeepEqual(lu[i], tu[i]) {
				t.Fatalf("unit %d differs after tape overflow (tape length %d):\n  live: %+v\n  tape: %+v",
					i, tapeLen, lu[i], tu[i])
			}
		}
	}
}

// TestTapeAttachGuards pins the self-guard: a tape built from another
// spec or seed is refused and leaves the run generating live.
func TestTapeAttachGuards(t *testing.T) {
	spec := XalanSpec().Scale(0.05)
	r, err := NewRun(spec, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.AttachTape(nil) {
		t.Error("AttachTape accepted a nil tape")
	}
	wrongSeed, err := BuildTape(spec, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.AttachTape(wrongSeed) {
		t.Error("AttachTape accepted a tape built from a different seed")
	}
	wrongSpec, err := BuildTape(SunflowSpec().Scale(0.05), 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.AttachTape(wrongSpec) {
		t.Error("AttachTape accepted a tape built from a different spec")
	}
	if u, ok := r.Take(0); !ok || len(u.Ops) == 0 {
		t.Error("run did not generate live after refused attaches")
	}
}
