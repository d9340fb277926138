package main

import (
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuBuckets are the cpu.* shares: the repository's layers, JSON
// encoding, the Go runtime's allocator and collector, and the rest.
var cpuBuckets = []string{
	"sim", "sched", "vm", "objmodel", "workload", "gc", "heap", "locks",
	"machine", "traffic", "core", "serve", "store",
	"encoding_json", "runtime_mallocgc", "other",
}

// cpuShares attributes the CPU-profile samples of profiles to buckets by
// the package of each sample's leaf frame, using `go tool pprof -top`
// (flat time is leaf time).
func cpuShares(ctx context.Context, profiles []string) (map[string]float64, error) {
	shares := map[string]float64{}
	if len(profiles) == 0 {
		return shares, nil
	}
	args := append([]string{"tool", "pprof", "-top", "-flat", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms", "-symbolize=none"}, profiles...)
	out, err := exec.CommandContext(ctx, "go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	total := 0.0
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		shares[cpuBucket(strings.Join(f[5:], " "))] += flat
		total += flat
	}
	for b := range shares {
		shares[b] /= total
	}
	return shares, nil
}

// runtimeMallocGC are substrings of the runtime's allocator, write
// barrier and garbage-collector function names.
var runtimeMallocGC = []string{
	"malloc", "gc", "mark", "sweep", "scan", "span", "heap", "alloc",
	"memclr", "wbbuf", "grey", "findobject", "bulkbarrier", "mcache", "mcentral",
}

// cpuBucket names the bucket of one profiled function.
func cpuBucket(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "javasim/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, b := range cpuBuckets {
			if b == pkg {
				return b
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "encoding/json.") {
		return "encoding_json"
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		lower := strings.ToLower(rest)
		for _, s := range runtimeMallocGC {
			if strings.Contains(lower, s) {
				return "runtime_mallocgc"
			}
		}
	}
	return "other"
}
