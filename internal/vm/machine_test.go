package vm

import (
	"reflect"
	"strings"
	"testing"

	"javasim/internal/machine"
	"javasim/internal/workload"
)

// TestRegistryDefaultMatchesSeedConfig is the differential guard for the
// machine registry: selecting the default model by name and selecting
// nothing at all must be the same simulation, bit for bit, across the
// whole paper set, labeled with the default model's name.
func TestRegistryDefaultMatchesSeedConfig(t *testing.T) {
	for _, spec := range workload.PaperSet() {
		spec := spec.Scale(0.02)
		cfg := Config{Threads: 8, Seed: 42}

		implicit, err := Run(spec, cfg)
		if err != nil {
			t.Fatalf("%s implicit: %v", spec.Name, err)
		}
		named := cfg
		named.MachineName = machine.DefaultModel
		byName, err := Run(spec, named)
		if err != nil {
			t.Fatalf("%s by name: %v", spec.Name, err)
		}

		if implicit.Machine != machine.DefaultModel {
			t.Errorf("%s: implicit run labeled %q, want default model", spec.Name, implicit.Machine)
		}
		if !reflect.DeepEqual(implicit, byName) {
			t.Errorf("%s: naming the default model changed the result", spec.Name)
		}
	}
}

func TestUnknownMachineRejectedAtRun(t *testing.T) {
	_, err := Run(smallSpec(), Config{Threads: 4, Seed: 1, MachineName: "pdp-11"})
	if err == nil {
		t.Fatal("unknown machine name accepted")
	}
	if !strings.Contains(err.Error(), "pdp-11") || !strings.Contains(err.Error(), machine.DefaultModel) {
		t.Errorf("error %q should name the bad model and list known ones", err)
	}
}

// TestCMTMachineDeterminism replays the pipeline-sharing model: the
// strand-penalty sampling must not depend on anything but the virtual
// schedule.
func TestCMTMachineDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(smallSpec(), Config{Threads: 48, Seed: 7, MachineName: machine.ModelSparcT3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("sparc-t3-4 runs diverged:\ntotal %v vs %v", a.TotalTime, b.TotalTime)
	}
}

// TestBandwidthMachineDeterminism replays the memory-channel queue: the
// per-socket billing clocks must be part of the deterministic state.
func TestBandwidthMachineDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(smallSpec(), Config{Threads: 16, Seed: 7, MachineName: machine.ModelOpteronBW})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("opteron-6168-bw runs diverged:\ntotal %v vs %v", a.TotalTime, b.TotalTime)
	}
}

func TestBandwidthCeilingStretchesRuntime(t *testing.T) {
	base, err := Run(smallSpec(), Config{Threads: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := Run(smallSpec(), Config{Threads: 8, Seed: 42, MachineName: machine.ModelOpteronBW})
	if err != nil {
		t.Fatal(err)
	}
	if base.MemTraffic != 0 || base.MemBWStall != 0 {
		t.Errorf("unlimited machine billed traffic: %d bytes, %v stall", base.MemTraffic, base.MemBWStall)
	}
	if bw.MemTraffic == 0 {
		t.Error("bandwidth-limited machine billed no traffic")
	}
	if bw.MemBWStall == 0 {
		t.Error("bandwidth-limited machine never stalled — ceiling not binding on an allocation-heavy run")
	}
	if bw.TotalTime <= base.TotalTime {
		t.Errorf("bandwidth ceiling did not stretch runtime: %v <= %v", bw.TotalTime, base.TotalTime)
	}
}

// TestPipelineSharingSlowsOversubscribedCores isolates the CMT penalty:
// the same topology with an issue width wide enough for every strand
// must beat the 2-wide pipeline once cores carry three runnable strands.
func TestPipelineSharingSlowsOversubscribedCores(t *testing.T) {
	// Registry entries cannot be replaced, so a repeated run (-count)
	// reuses the first run's registration.
	const wideModel = "sparc-t3-4-wide-issue"
	if machine.Models.Validate(wideModel) != nil {
		wide := machine.SparcT3_4()
		wide.IssueWidth = wide.ThreadsPerCore // every strand gets an issue slot
		machine.Models.MustRegister(wideModel, wide)
	}

	shared, err := Run(smallSpec(), Config{Threads: 48, Seed: 42, MachineName: machine.ModelSparcT3})
	if err != nil {
		t.Fatal(err)
	}
	free, err := Run(smallSpec(), Config{Threads: 48, Seed: 42, MachineName: wideModel})
	if err != nil {
		t.Fatal(err)
	}
	if shared.TotalTime <= free.TotalTime {
		t.Errorf("3 strands on a 2-wide pipeline should be slower: shared=%v wide=%v",
			shared.TotalTime, free.TotalTime)
	}
}
