package traffic

import (
	"javasim/internal/metrics"
	"javasim/internal/sim"
)

// Stats is the open-system measurement record of one run: the
// per-request latency distribution, queue-depth summaries, and the
// offered/completed/timed-out accounting that goodput curves plot.
// vm.Result carries one for open-system runs and nil for closed-loop
// runs.
type Stats struct {
	// Process and RatePerSec echo the run's arrival configuration so
	// reports can label rate-sweep rows.
	Process    string
	RatePerSec float64

	// Offered counts requests injected by the arrival process;
	// Completed counts requests served to completion; TimedOut counts
	// requests abandoned after waiting longer than the admission
	// timeout. Offered == Completed + TimedOut at run end.
	Offered   int64
	Completed int64
	TimedOut  int64

	// Latency is the arrival-to-completion distribution in virtual
	// nanoseconds — the per-request number an open system's users see,
	// queueing delay included.
	Latency *metrics.Histogram
	// QueueWait is the arrival-to-dispatch distribution in virtual
	// nanoseconds: the queueing component of Latency.
	QueueWait *metrics.Histogram

	// QueueDepthMax and QueueDepthMean summarize queue depth over the
	// run (the mean is time-weighted).
	QueueDepthMax  int
	QueueDepthMean float64
}

// GoodputPerSec returns completed requests per virtual second over the
// run window.
func (s *Stats) GoodputPerSec(total sim.Time) float64 {
	if total <= 0 {
		return 0
	}
	return float64(s.Completed) / total.Seconds()
}

// OfferedPerSec returns the observed offered load in requests per
// virtual second over the run window.
func (s *Stats) OfferedPerSec(total sim.Time) float64 {
	if total <= 0 {
		return 0
	}
	return float64(s.Offered) / total.Seconds()
}
