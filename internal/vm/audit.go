package vm

import (
	"errors"
	"fmt"

	"javasim/internal/workload"
)

// Audit checks the conservation laws that every result of a run of spec
// under cfg obeys, and returns one error naming each law r breaks, or
// nil:
//   - the total time is the mutator time plus the GC time;
//   - lock contentions do not exceed lock acquisitions;
//   - an open run's offered requests were completed or timed out;
//   - a closed run executed TotalUnits units in each iteration.
func Audit(r *Result, spec workload.Spec, cfg Config) error {
	var errs []error
	if r.TotalTime != r.MutatorTime+r.GCTime {
		errs = append(errs, fmt.Errorf("vm: total time %d != mutator %d + gc %d", r.TotalTime, r.MutatorTime, r.GCTime))
	}
	if r.LockContentions > r.LockAcquisitions {
		errs = append(errs, fmt.Errorf("vm: %d lock contentions > %d acquisitions", r.LockContentions, r.LockAcquisitions))
	}
	if tr := r.Traffic; tr != nil {
		if tr.Offered != tr.Completed+tr.TimedOut {
			errs = append(errs, fmt.Errorf("vm: %d requests offered != %d completed + %d timed out", tr.Offered, tr.Completed, tr.TimedOut))
		}
	} else {
		var units int64
		for _, u := range r.PerThreadUnits {
			units += u
		}
		if want := int64(spec.TotalUnits) * int64(cfg.Canonical().Iterations); units != want {
			errs = append(errs, fmt.Errorf("vm: executed %d units, want %d (%d per iteration)", units, want, spec.TotalUnits))
		}
	}
	return errors.Join(errs...)
}
