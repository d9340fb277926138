package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// registered returns every registered spec in registration order.
func registered(t testing.TB) []Spec {
	t.Helper()
	var out []Spec
	for _, name := range Registry.Names() {
		s, err := Registry.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func TestRegistryBuiltins(t *testing.T) {
	names := Registry.Names()
	want := []string{"sunflow", "lusearch", "xalan", "h2", "eclipse", "jython", "server", "server-contended"}
	for i, w := range want {
		if i >= len(names) || names[i] != w {
			t.Fatalf("Names() = %v, want prefix %v", names, want)
		}
	}
	for _, w := range want {
		s, err := Registry.Get(w)
		if err != nil || s.Name != w {
			t.Errorf("Get(%q) = %v, %v", w, s.Name, err)
		}
	}
	if _, err := Registry.Get("nope"); err == nil {
		t.Error("Get(nope) succeeded")
	}
}

func TestRegistryPaperSet(t *testing.T) {
	ps := PaperSet()
	if len(ps) != 6 {
		t.Fatalf("PaperSet() = %d specs, want 6", len(ps))
	}
	if ps[0].Name != "sunflow" || ps[5].Name != "jython" {
		t.Errorf("paper order wrong: %s..%s", ps[0].Name, ps[5].Name)
	}
	for _, s := range ps {
		if s.Name == "server" {
			t.Error("extension leaked into PaperSet")
		}
	}
}

// registerRuns numbers TestRegisterValidatesAndRejectsDuplicates's runs
// in this process: the catalog is process-global and a registration
// cannot be undone, so each run (go test -count=N) registers a fresh
// name.
var registerRuns int

func TestRegisterValidatesAndRejectsDuplicates(t *testing.T) {
	registerRuns++
	bad := XalanSpec()
	bad.Name = "registry-test-invalid"
	bad.TotalUnits = 0
	if err := Registry.Register(bad.Name, bad); err == nil {
		t.Error("invalid spec registered")
	}
	if err := Registry.Register("xalan", XalanSpec()); err == nil {
		t.Error("duplicate xalan registered")
	}
	custom := XalanSpec()
	custom.Name = fmt.Sprintf("registry-test-custom-%d", registerRuns)
	if err := Registry.Register(custom.Name, custom); err != nil {
		t.Fatal(err)
	}
	if _, err := Registry.Get(custom.Name); err != nil {
		t.Error("registered workload not found")
	}
	if err := Registry.Register(custom.Name, custom); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate register error = %v", err)
	}
	// User registrations are part of the catalog but never the paper set.
	inExt := false
	for _, s := range registered(t) {
		if s.Name == custom.Name && !IsPaperBenchmark(s.Name) {
			inExt = true
		}
	}
	if !inExt {
		t.Error("user registration missing from the non-paper catalog")
	}
}

func TestRefResolve(t *testing.T) {
	if s, err := NameRef("h2").Resolve(); err != nil || s.Name != "h2" {
		t.Errorf("NameRef(h2).Resolve() = %v, %v", s.Name, err)
	}
	if _, err := NameRef("missing-workload").Resolve(); err == nil ||
		!strings.Contains(err.Error(), "known:") {
		t.Errorf("unknown-name error should list the registry, got %v", err)
	}
	if _, err := (Ref{}).Resolve(); err == nil {
		t.Error("empty ref resolved")
	}
	if _, err := (Ref{Name: "h2", Spec: &Spec{}}).Resolve(); err == nil {
		t.Error("ambiguous ref resolved")
	}
	bad := XalanSpec()
	bad.TotalUnits = 0
	if _, err := SpecRef(bad).Resolve(); err == nil {
		t.Error("invalid inline spec resolved")
	}
	if s, err := SpecRef(XalanSpec()).Resolve(); err != nil || s.Name != "xalan" {
		t.Errorf("inline resolve = %v, %v", s.Name, err)
	}
}

func TestRefJSONRoundTrip(t *testing.T) {
	// Name form encodes as a bare string.
	data, err := json.Marshal(NameRef("xalan"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `"xalan"` {
		t.Errorf("name ref JSON = %s", data)
	}
	var back Ref
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "xalan" || back.Spec != nil {
		t.Errorf("round-tripped name ref = %+v", back)
	}

	// Inline form encodes as the spec object, and re-encoding is stable.
	inline := SpecRef(JythonSpec())
	first, err := json.Marshal(inline)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Ref
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Spec == nil || decoded.Spec.Name != "jython" {
		t.Fatalf("round-tripped inline ref = %+v", decoded)
	}
	second, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("inline ref encode not stable:\n%s\n%s", first, second)
	}

	// Unknown fields in an inline spec are rejected.
	if err := json.Unmarshal([]byte(`{"Name":"x","Typo":1}`), &back); err == nil {
		t.Error("unknown inline field accepted")
	}
	// Marshaling an empty or ambiguous ref fails loudly.
	if _, err := json.Marshal(Ref{}); err == nil {
		t.Error("empty ref marshaled")
	}
}
