package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, spec := range registered(t) {
		var buf bytes.Buffer
		if err := spec.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		got, err := LoadSpec(&buf)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if got != spec {
			t.Errorf("%s: round trip changed spec\n got %+v\nwant %+v", spec.Name, got, spec)
		}
	}
}

func TestDistKindJSONNames(t *testing.T) {
	var buf bytes.Buffer
	if err := H2Spec().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"Distribution": "zipf"`) {
		t.Errorf("distribution not marshaled by name:\n%s", buf.String())
	}
}

func TestLoadSpecRejects(t *testing.T) {
	cases := map[string]string{
		"unknown distribution": `{"Name":"x","TotalUnits":1,"UnitCompute":1,"Distribution":"wat"}`,
		"unknown field":        `{"Name":"x","TotalUnits":1,"UnitCompute":1,"Bogus":1}`,
		"invalid spec":         `{"Name":"","TotalUnits":1,"UnitCompute":1}`,
		"not json":             `{{{`,
	}
	for name, in := range cases {
		if _, err := LoadSpec(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestLoadSpecMinimal(t *testing.T) {
	in := `{
		"Name": "custom",
		"TotalUnits": 100,
		"UnitCompute": 50000,
		"Distribution": "queue",
		"AllocsPerUnit": 10,
		"ObjSizeMeanB": 64
	}`
	s, err := LoadSpec(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "custom" || s.TotalUnits != 100 {
		t.Errorf("loaded %+v", s)
	}
}
