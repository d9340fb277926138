package vm

import (
	"strings"
	"testing"

	"javasim/internal/traffic"
)

// TestAuditLaws audits a closed run of two iterations and an open run,
// then breaks each law in a copy of the matching result: the audit
// passes the real results and names exactly the broken law otherwise.
func TestAuditLaws(t *testing.T) {
	closedCfg := Config{Threads: 4, Seed: 1, Iterations: 2}
	closed, err := Run(smallSpec(), closedCfg)
	if err != nil {
		t.Fatal(err)
	}
	serverCfg := openCfg(traffic.ProcessPoisson, 20000)
	open, err := Run(openServer(), serverCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(closed, smallSpec(), closedCfg); err != nil {
		t.Errorf("closed run: %v", err)
	}
	if err := Audit(open, openServer(), serverCfg); err != nil {
		t.Errorf("open run: %v", err)
	}
	for _, c := range []struct {
		law  string
		open bool
		warp func(*Result)
	}{
		{"mutator", false, func(r *Result) { r.GCTime++ }},
		{"contentions", false, func(r *Result) { r.LockContentions = r.LockAcquisitions + 1 }},
		{"units", false, func(r *Result) { r.PerThreadUnits = append([]int64{1}, r.PerThreadUnits...) }},
		{"offered", true, func(r *Result) {
			tr := *r.Traffic
			tr.TimedOut++
			r.Traffic = &tr
		}},
	} {
		r, spec, cfg := *closed, smallSpec(), closedCfg
		if c.open {
			r, spec, cfg = *open, openServer(), serverCfg
		}
		c.warp(&r)
		err := Audit(&r, spec, cfg)
		if err == nil || !strings.Contains(err.Error(), c.law) || strings.Contains(err.Error(), "\n") {
			t.Errorf("breaking the %s law: audit says %v", c.law, err)
		}
	}
}
