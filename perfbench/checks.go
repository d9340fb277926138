package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"javasim/internal/core"
)

// tally counts the operations a run attempted and those that failed a
// check. An operation is a plan execution, a daemon job, a simulated
// point or the golden canary.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
	problems          []string
}

// maxProblems bounds the failure messages kept for stderr.
const maxProblems = 20

// record counts one operation, failed if it has any problems.
func (t *tally) record(op string, problems ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if len(problems) == 0 {
		return
	}
	t.failed++
	for _, p := range problems {
		if len(t.problems) < maxProblems {
			t.problems = append(t.problems, op+": "+p)
		}
	}
}

// checkPoint verifies the conservation laws every vm.Result obeys.
func checkPoint(p pointRec) []string {
	if p.err != nil {
		return []string{p.err.Error()}
	}
	r := p.res
	var bad []string
	if r.TotalTime != r.MutatorTime+r.GCTime {
		bad = append(bad, fmt.Sprintf("total %d != mutator %d + gc %d", r.TotalTime, r.MutatorTime, r.GCTime))
	}
	if r.LockContentions > r.LockAcquisitions {
		bad = append(bad, fmt.Sprintf("%d contentions > %d acquisitions", r.LockContentions, r.LockAcquisitions))
	}
	if tr := r.Traffic; tr != nil {
		if tr.Offered != tr.Completed+tr.TimedOut {
			bad = append(bad, fmt.Sprintf("offered %d != completed %d + timed out %d", tr.Offered, tr.Completed, tr.TimedOut))
		}
	} else if got, want := unitsExecuted(r.PerThreadUnits), int64(p.spec.TotalUnits*p.cfg.Canonical().Iterations); got != want {
		bad = append(bad, fmt.Sprintf("executed %d units, spec has %d", got, want))
	}
	return bad
}

func unitsExecuted(perThread []int64) int64 {
	var n int64
	for _, u := range perThread {
		n += u
	}
	return n
}

func pointName(p pointRec) string {
	return fmt.Sprintf("point %s t=%d seed=%d", p.spec.Name, p.cfg.Threads, p.cfg.Seed)
}

// checkPoints records every simulated point as an operation.
func (t *tally) checkPoints(pts []pointRec) {
	for _, p := range pts {
		t.record(pointName(p), checkPoint(p)...)
	}
}

// render produces a plan's text artifacts exactly as `javasim -plan`
// prints them and the daemon serves them: tables joined by a blank line.
func render(pr *core.PlanResult) []byte {
	var buf bytes.Buffer
	for i, t := range pr.Tables() {
		if i > 0 {
			buf.WriteByte('\n')
		}
		t.WriteASCII(&buf)
	}
	return buf.Bytes()
}

// sameText reports a mismatch between artifacts that must be identical.
func sameText(what string, got, want []byte) []string {
	if bytes.Equal(got, want) {
		return nil
	}
	return []string{fmt.Sprintf("%s: %d artifact bytes differ from the reference's %d", what, len(got), len(want))}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenConfig is the configuration internal/core's golden test renders.
var goldenConfig = core.ExperimentConfig{ThreadCounts: []int{2, 4}, Scale: 0.02, Seed: 12345}

// goldenCanary runs core.PaperPlan at the golden configuration and
// compares its reports with the repository's golden file, read-only.
func goldenCanary(ctx context.Context, root string) []string {
	want, err := os.ReadFile(filepath.Join(root, "internal", "core", "testdata", "artifacts.golden"))
	if err != nil {
		return []string{err.Error()}
	}
	pr, err := core.NewEngine(core.WithParallelism(parallelism)).RunPlan(ctx, core.PaperPlan(goldenConfig))
	if err != nil {
		return []string{err.Error()}
	}
	var buf bytes.Buffer
	for _, t := range pr.Reports {
		t.WriteASCII(&buf)
		buf.WriteByte('\n')
	}
	return sameText("golden canary", buf.Bytes(), want)
}
