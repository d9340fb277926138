package machine

import (
	"testing"
	"testing/quick"

	"javasim/internal/sim"
)

func TestOpteron6168Preset(t *testing.T) {
	cfg := Opteron6168()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	if got := cfg.TotalCores(); got != 48 {
		t.Errorf("TotalCores = %d, want 48", got)
	}
	if cfg.Sockets != 4 || cfg.CoresPerSocket != 12 {
		t.Errorf("topology %dx%d, want 4x12", cfg.Sockets, cfg.CoresPerSocket)
	}
	if total := cfg.MemoryPerNode * int64(cfg.Sockets); total != 64<<30 {
		t.Errorf("total memory = %d, want 64 GiB", total)
	}
}

func TestSparcT3Preset(t *testing.T) {
	cfg := SparcT3_4()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("preset invalid: %v", err)
	}
	if got := cfg.TotalCores(); got != 512 {
		t.Errorf("TotalCores = %d, want 512 hardware threads", got)
	}
	if got := cfg.UnitsPerSocket(); got != 128 {
		t.Errorf("UnitsPerSocket = %d, want 128", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []Config{
		{Sockets: 0, CoresPerSocket: 4, MemoryPerNode: 1},
		{Sockets: 2, CoresPerSocket: 0, MemoryPerNode: 1},
		{Sockets: 2, CoresPerSocket: 4, MemoryPerNode: 0},
		{Sockets: 2, CoresPerSocket: 4, MemoryPerNode: 1, LocalAccess: -1},
		{Sockets: 2, CoresPerSocket: 4, MemoryPerNode: 1, ThreadsPerCore: -1},
		{Sockets: 2, CoresPerSocket: 4, MemoryPerNode: 1, IssueWidth: -2},
		{Sockets: 2, CoresPerSocket: 4, MemoryPerNode: 1, SocketBandwidth: -1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid config %+v", i, c)
		}
	}
}

func TestSocketAssignment(t *testing.T) {
	m := mustNew(t, Opteron6168())
	for i := 0; i < m.NumCores(); i++ {
		want := i / 12
		if got := m.SocketOf(i); got != want {
			t.Errorf("core %d on socket %d, want %d", i, got, want)
		}
		// Single-threaded cores: one unit per pipeline, strand always 0.
		if p := m.PipelineOf(i); p != i {
			t.Errorf("core %d pipeline %d, want %d", i, p, i)
		}
		if s := m.Core(i).Strand; s != 0 {
			t.Errorf("core %d strand %d, want 0", i, s)
		}
	}
}

func TestCMTUnitLayout(t *testing.T) {
	m := mustNew(t, SparcT3_4())
	cps, ups := 16, 128
	for i := 0; i < m.NumCores(); i++ {
		c := m.Core(i)
		wantSocket := i / ups
		u := i % ups
		wantPipeline := wantSocket*cps + u%cps
		wantStrand := u / cps
		if c.Socket != wantSocket || c.Pipeline != wantPipeline || c.Strand != wantStrand {
			t.Fatalf("unit %d = (socket %d, pipeline %d, strand %d), want (%d, %d, %d)",
				i, c.Socket, c.Pipeline, c.Strand, wantSocket, wantPipeline, wantStrand)
		}
	}
	// First 16 units fill 16 distinct pipelines before strands double up.
	seen := map[int]bool{}
	for i := 0; i < cps; i++ {
		p := m.PipelineOf(i)
		if seen[p] {
			t.Fatalf("unit %d repeats pipeline %d before all pipelines used", i, p)
		}
		seen[p] = true
	}
	if m.PipelineOf(cps) != m.PipelineOf(0) {
		t.Errorf("unit %d should share pipeline with unit 0", cps)
	}
}

func TestEnableCores(t *testing.T) {
	m := mustNew(t, Opteron6168())
	if err := m.EnableCores(16); err != nil {
		t.Fatal(err)
	}
	enabled := m.EnabledCores()
	if len(enabled) != 16 {
		t.Fatalf("enabled %d cores, want 16", len(enabled))
	}
	for i, c := range enabled {
		if c != i {
			t.Errorf("enabled[%d] = %d, want %d (socket-major fill)", i, c, i)
		}
	}
	if m.Core(16).Enabled {
		t.Error("core 16 still enabled")
	}
}

func TestEnableCoresRange(t *testing.T) {
	m := mustNew(t, Opteron6168())
	if err := m.EnableCores(0); err == nil {
		t.Error("EnableCores(0) accepted")
	}
	if err := m.EnableCores(49); err == nil {
		t.Error("EnableCores(49) accepted")
	}
	if err := m.EnableCores(48); err != nil {
		t.Errorf("EnableCores(48) rejected: %v", err)
	}
}

// TestDistance pins the flat mesh every modeled machine uses: a remote
// socket is one hop away, so every cross-socket access costs the same,
// and latency is the same from either end.
func TestDistance(t *testing.T) {
	cfg := Opteron6168()
	m := mustNew(t, cfg)
	local, remote := cfg.LocalAccess, cfg.LocalAccess+cfg.RemoteAccessPerHop
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			ca := a * (m.NumCores() / 4) // first core on socket a
			cb := b * (m.NumCores() / 4)
			if m.SocketOf(ca) != a || m.SocketOf(cb) != b {
				t.Fatalf("cores %d, %d are not on sockets %d, %d", ca, cb, a, b)
			}
			want := local
			if a != b {
				want = remote
			}
			if got := m.MemoryLatency(ca, b); got != want {
				t.Errorf("MemoryLatency(core on socket %d, node %d) = %v, want %v", a, b, got, want)
			}
			if m.MemoryLatency(ca, b) != m.MemoryLatency(cb, a) {
				t.Errorf("latency between sockets %d and %d asymmetric", a, b)
			}
		}
	}
}

func TestMemoryLatency(t *testing.T) {
	cfg := Opteron6168()
	m := mustNew(t, cfg)
	local := m.MemoryLatency(0, 0) // core 0 is on socket 0
	remote := m.MemoryLatency(0, 1)
	if local != cfg.LocalAccess {
		t.Errorf("local latency %v, want %v", local, cfg.LocalAccess)
	}
	if remote != cfg.LocalAccess+cfg.RemoteAccessPerHop {
		t.Errorf("remote latency %v, want %v", remote, cfg.LocalAccess+cfg.RemoteAccessPerHop)
	}
	if remote <= local {
		t.Error("remote access not slower than local")
	}
}

func TestRemotePenalty(t *testing.T) {
	m := mustNew(t, Opteron6168())
	if p := m.RemotePenalty(0, 0); p != 1 {
		t.Errorf("local penalty = %v, want 1", p)
	}
	if p := m.RemotePenalty(0, 2); p <= 1 {
		t.Errorf("remote penalty = %v, want > 1", p)
	}
}

func TestNewErrorsOnInvalid(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

func TestBillTraffic(t *testing.T) {
	cfg := Opteron6168()
	cfg.SocketBandwidth = 1 << 20 // 1 MiB per virtual second
	m := mustNew(t, cfg)
	if !m.HasBandwidthLimit() {
		t.Fatal("HasBandwidthLimit = false with SocketBandwidth set")
	}
	// First transfer on an idle channel: no stall, channel busy for
	// bytes/bandwidth.
	if stall := m.BillTraffic(0, 512<<10, 0); stall != 0 {
		t.Errorf("idle-channel stall = %v, want 0", stall)
	}
	// Second transfer arrives immediately: waits out the 0.5 s backlog.
	stall := m.BillTraffic(0, 512<<10, 0)
	if want := 500 * sim.Millisecond; stall != want {
		t.Errorf("backlogged stall = %v, want %v", stall, want)
	}
	// Another socket's channel is independent.
	if stall := m.BillTraffic(1, 512<<10, 0); stall != 0 {
		t.Errorf("cross-socket stall = %v, want 0", stall)
	}
	// After the backlog drains, traffic is free again.
	if stall := m.BillTraffic(0, 512<<10, 2*sim.Second); stall != 0 {
		t.Errorf("post-drain stall = %v, want 0", stall)
	}
	if got := m.TrafficBytes(); got != 4*(512<<10) {
		t.Errorf("TrafficBytes = %d, want %d", got, 4*(512<<10))
	}
	if got := m.BandwidthStall(); got != 500*sim.Millisecond {
		t.Errorf("BandwidthStall = %v, want %v", got, 500*sim.Millisecond)
	}
}

func TestBillTrafficUnlimited(t *testing.T) {
	m := mustNew(t, Opteron6168())
	if m.HasBandwidthLimit() {
		t.Fatal("HasBandwidthLimit = true without SocketBandwidth")
	}
	if stall := m.BillTraffic(0, 1<<30, 0); stall != 0 {
		t.Errorf("unlimited machine stalled %v", stall)
	}
}

// TestModelRegistry checks what only the machine catalog does: each
// built-in name resolves to its preset Config, and registration rejects
// an invalid Config.
func TestModelRegistry(t *testing.T) {
	for name, want := range map[string]Config{
		DefaultModel:     Opteron6168(),
		ModelSparcT3:     SparcT3_4(),
		ModelOpteronBW:   Opteron6168BW(),
		ModelOpteronFlat: Opteron6168Flat(),
	} {
		got, err := Models.Get(name)
		if err != nil {
			t.Fatalf("Models.Get(%q): %v", name, err)
		}
		if got != want {
			t.Errorf("model %q = %+v, want %+v", name, got, want)
		}
	}
	if err := Models.Register("bad-config", Config{}); err == nil {
		t.Error("invalid model config accepted")
	}
}

func TestValidateModel(t *testing.T) {
	if err := Models.Validate(""); err != nil {
		t.Errorf("empty name rejected: %v", err)
	}
	if err := Models.Validate(DefaultModel); err != nil {
		t.Errorf("default model rejected: %v", err)
	}
	if err := Models.Validate("no-such-machine"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestModelNamesIncludeBuiltins(t *testing.T) {
	names := Models.Names()
	want := map[string]bool{DefaultModel: false, ModelSparcT3: false, ModelOpteronBW: false, ModelOpteronFlat: false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("built-in model %q missing from Models.Names", n)
		}
	}
}

// Property: for any valid small topology, every unit maps to a valid
// socket and pipeline, and memory latency is minimized at the local node.
func TestTopologyProperty(t *testing.T) {
	f := func(sockets, cores, strands uint8) bool {
		s := int(sockets%8) + 1
		c := int(cores%16) + 1
		tpc := int(strands%4) + 1
		m := mustNew(t, Config{
			Sockets: s, CoresPerSocket: c, ThreadsPerCore: tpc,
			MemoryPerNode: 1 << 30,
			LocalAccess:   60 * sim.Nanosecond, RemoteAccessPerHop: 40 * sim.Nanosecond,
		})
		if m.NumCores() != s*c*tpc {
			return false
		}
		for i := 0; i < m.NumCores(); i++ {
			sk := m.SocketOf(i)
			if sk < 0 || sk >= s {
				return false
			}
			p := m.PipelineOf(i)
			if p < 0 || p >= s*c || p/c != sk {
				return false
			}
			localLat := m.MemoryLatency(i, sk)
			for node := 0; node < s; node++ {
				if m.MemoryLatency(i, node) < localLat {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// mustNew builds a machine from a configuration the test knows is valid.
func mustNew(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
