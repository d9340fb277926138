// Command benchreport runs the repository's benchmark smoke and, with
// -out, writes a machine-readable JSON report — benchmark name to ns/op,
// allocs/op, bytes/op, and any custom b.ReportMetric figures — that later
// changes compare against (BENCH_<n>.json at the repo root). Without -out
// it writes no file: it only runs, compares and prints.
//
// Usage:
//
//	go run ./cmd/benchreport -out NEW.json -bench 'BenchmarkVMRun' -benchtime 3x .
//	go run ./cmd/benchreport -baseline BENCH_17.json ./...
//
// The positional arguments are the packages to benchmark (default ./...).
// -baseline takes one previous report; its measurements are embedded
// under "baseline". -max-ns-regress, -max-allocs-regress and
// -max-bytes-regress turn the comparison into a gate: the command exits
// non-zero when any benchmark regresses past the percentage ceiling,
// which is how CI holds performance (allocation counts and bytes are
// nearly deterministic, so their ceilings can sit tight; wall time on
// shared runners needs a generous one).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Measurement is one benchmark's parsed result line.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Metrics holds custom b.ReportMetric figures (the headline statistic
	// each figure benchmark reports, e.g. "xalan-gc-growth-x").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the file format: a schema tag, the toolchain, the
// measurements, and optionally the baseline report's measurements.
type Report struct {
	Schema     string                 `json:"schema"`
	GoVersion  string                 `json:"go_version"`
	GOOS       string                 `json:"goos"`
	GOARCH     string                 `json:"goarch"`
	BenchTime  string                 `json:"bench_time"`
	Benchmarks map[string]Measurement `json:"benchmarks"`
	// Baseline holds the -baseline report's measurements — the gate's
	// comparison point.
	Baseline map[string]Measurement `json:"baseline,omitempty"`
}

var cpuSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	out := flag.String("out", "", "output report path; empty writes no file")
	bench := flag.String("bench", ".", "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime value")
	baseline := flag.String("baseline", "", "previous report to compare against")
	maxNs := flag.Float64("max-ns-regress", -1,
		"with -baseline: fail when a benchmark's ns/op regresses more than this percentage (negative disables)")
	maxAllocs := flag.Float64("max-allocs-regress", -1,
		"with -baseline: fail when a benchmark's allocs/op regresses more than this percentage (negative disables)")
	maxBytes := flag.Float64("max-bytes-regress", -1,
		"with -baseline: fail when a benchmark's B/op regresses more than this percentage (negative disables)")
	flag.Parse()
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = []string{"./..."}
	}

	args := append([]string{"test", "-run", "^$", "-bench", *bench,
		"-benchmem", "-benchtime", *benchtime}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}

	rep := Report{
		Schema:     "javasim-bench-report/v1",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		BenchTime:  *benchtime,
		Benchmarks: map[string]Measurement{},
	}
	for _, line := range strings.Split(string(raw), "\n") {
		name, m, ok := parseLine(line)
		if ok {
			rep.Benchmarks[name] = m
		}
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchreport: no benchmark lines in go test output")
		os.Exit(1)
	}

	if *baseline != "" {
		prev, err := readReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: baseline: %v\n", err)
			os.Exit(1)
		}
		rep.Baseline = prev.Benchmarks
	}

	if *out == "" {
		fmt.Printf("benchreport: measured %d benchmarks\n", len(rep.Benchmarks))
	} else {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchreport: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	}

	if violations := gate(rep, *maxNs, *maxAllocs, *maxBytes); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "benchreport: REGRESSION %s\n", v)
		}
		os.Exit(1)
	}
}

// gate returns one violation line per benchmark whose time, allocation
// count or allocated bytes moved against the baseline past its percentage
// ceiling. Negative
// ceilings disable that axis; benchmarks absent from the baseline pass
// (they are new, with nothing to regress from).
func gate(rep Report, maxNs, maxAllocs, maxBytes float64) []string {
	var bad []string
	for name, cur := range rep.Benchmarks {
		base, ok := rep.Baseline[name]
		if !ok {
			continue
		}
		check := func(axis string, b, c, ceiling float64) {
			if ceiling < 0 {
				return
			}
			if b == 0 {
				// A zero baseline is a pinned invariant (e.g. a benchmark
				// holding 0 allocs/op): any increase is a regression, since
				// no percentage ceiling can be computed from zero.
				if c > 0 {
					bad = append(bad, fmt.Sprintf("%s %s 0 -> %.0f (was pinned at zero)", name, axis, c))
				}
				return
			}
			if pct := 100 * (c - b) / b; pct > ceiling {
				bad = append(bad, fmt.Sprintf("%s %s %.0f -> %.0f (%+.1f%%, ceiling %.0f%%)",
					name, axis, b, c, pct, ceiling))
			}
		}
		check("ns/op", base.NsPerOp, cur.NsPerOp, maxNs)
		check("allocs/op", base.AllocsPerOp, cur.AllocsPerOp, maxAllocs)
		check("B/op", base.BytesPerOp, cur.BytesPerOp, maxBytes)
	}
	sort.Strings(bad)
	return bad
}

// parseLine parses one `go test -bench` result line:
//
//	BenchmarkVMRun-8  3  16170192 ns/op  9837909 virtual-ns/run  970 B/op  119 allocs/op
//
// Fields after the iteration count come in (value, unit) pairs; unknown
// units land in Metrics.
func parseLine(line string) (string, Measurement, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", Measurement{}, false
	}
	name := cpuSuffix.ReplaceAllString(f[0], "")
	m := Measurement{}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", Measurement{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			m.NsPerOp = v
		case "B/op":
			m.BytesPerOp = v
		case "allocs/op":
			m.AllocsPerOp = v
		default:
			if m.Metrics == nil {
				m.Metrics = map[string]float64{}
			}
			m.Metrics[unit] = v
		}
	}
	return name, m, true
}

func readReport(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
