package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"paragon/internal/partition"
)

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// Every workload named in BENCHMARK.json emits exactly the metrics the
// file names, with their units, and passes its own checks — at quick
// sizes, untraced and traced.
func TestQuickRunsEmitBenchmarkMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workload")
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			r, err := execute(w.Name, 3, time.Second, trace, true)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed: %s", w.Name, trace,
					r.failed, r.attempted, strings.Join(r.failures, "; "))
			}
			if len(r.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, trace, len(r.metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// A corrupted refinement result must fail the correctness checks: an
// out-of-range rank fails validation, and a valid but altered
// assignment contradicts the refinement's own Stats.
func TestCorruptedAssignmentFailsCheck(t *testing.T) {
	sp, err := lookupSpec("social-uniform", true)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sp.setup(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := in.refineConfig(5, 2)
	alpha := cfg.WithDefaults(in.p0.K).Alpha
	before := partition.ComputeScore(in.g, in.p0, nil, in.c, alpha)

	call := refineOnce(in, cfg)
	r := newReport()
	checkRefined(r, in, call, before, alpha)
	if r.failed != 0 {
		t.Fatalf("clean refinement failed its checks: %v", r.failures)
	}

	for name, corrupt := range map[string]func(p *partition.Partitioning){
		"rank out of range": func(p *partition.Partitioning) { p.Assign[0] = p.K },
		"vertex moved":      func(p *partition.Partitioning) { p.Assign[0] = (p.Assign[0] + 1) % p.K },
	} {
		bad := call
		bad.p = call.p.Clone()
		corrupt(bad.p)
		r := newReport()
		checkRefined(r, in, bad, before, alpha)
		if r.failed == 0 {
			t.Errorf("%s: corrupted assignment passed every check", name)
		}
	}
}
