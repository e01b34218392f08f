package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// metricName is the alphabet BENCHMARK.json allows for metric and
// workload names.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match [A-Za-z0-9_.-]+", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q does not match [A-Za-z0-9_.-]+", w.name)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the program's
// workload and metric lists in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so tailOf must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		want float64 // value at the reported percentile (values are 1..n)
		q    float64
	}{
		{5000, 4950, 0.99}, // p99 supported: 50 samples beyond it
		{1010, 1000, 0.99}, // exactly 10 beyond p99
		{1000, 990, 0.99},  // p99 has only 10 beyond at rank 990
		{500, 490, 0.98},   // p99 would leave 5 beyond: fall back to p98
		{11, 1, 1.0 / 11},  // the lowest value is the only one with 10 beyond
		{10, 5, 0.5},       // nothing qualifies: the median stands in
	}
	for _, c := range cases {
		got := tailOf(seq(c.n))
		if got.Value != c.want || math.Abs(got.Q-c.q) > 1e-12 || got.N != c.n {
			t.Errorf("n=%d: got value %v at q=%v, want %v at q=%v", c.n, got.Value, got.Q, c.want, c.q)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > got.Value {
				beyond++
			}
		}
		if c.n > minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", c.n, beyond)
		}
	}
	// A failed request (+Inf) sorts last and counts among the ten beyond.
	if lat := tailOf([]float64{1, 2, math.Inf(1), 3, 4, 5, 6, 7, 8, 9, 10, 11}); lat.Value != 2 {
		t.Errorf("tail with one failed request: got %v, want 2", lat.Value)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "drv", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "op", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "op", Start: 20, End: 40},  // overlaps the previous child
		{ID: 4, Parent: 1, Name: "op", Start: 90, End: 120}, // runs past the parent
	}
	ss := indexSpans(spans)
	if got, want := ss.selfTime("drv"), (100-30-10)*1e-9; math.Abs(got-want) > 1e-15 {
		t.Fatalf("self time %v, want %v", got, want)
	}
}

func TestParseCacheSize(t *testing.T) {
	for in, want := range map[string]int64{"48K": 48 << 10, "2M": 2 << 20, "107520K": 107520 << 10, "512": 512} {
		if got, ok := parseCacheSize(in); !ok || got != want {
			t.Errorf("parseCacheSize(%q) = %d, %v", in, got, ok)
		}
	}
	if _, ok := parseCacheSize("big"); ok {
		t.Error("parseCacheSize accepted garbage")
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	ids := []int{0, 1, 2, 3}
	s := openLoop(2000, 50*time.Millisecond, ids, 4, func(i, row int) error {
		if row == 3 {
			return errWrong
		}
		return nil
	})
	if s.sent != 100 || s.ok+s.bad() != s.sent || s.wrong != 25 {
		t.Fatalf("sent %d ok %d wrong %d", s.sent, s.ok, s.wrong)
	}
	if s.meets(1e9, 0.001) {
		t.Fatal("a step with 25% wrong answers met the limit")
	}
	inf := 0
	for _, l := range s.lat {
		if math.IsInf(l, 1) {
			inf++
		}
	}
	if inf != 25 {
		t.Fatalf("%d failed requests have infinite latency, want 25", inf)
	}
}

// TestTallyRefusals: refusals are counted apart from failures.
func TestTallyRefusals(t *testing.T) {
	out := newOutcome()
	ref := &loadStep{rate: 100, sent: 10, rejected: 1}
	above := &loadStep{rate: 200, sent: 20, rejected: 3, wrong: 1, failed: 1}
	if issued := tally(out, ref, above); issued != 30 || out.attempted != 30 {
		t.Fatalf("issued %d, attempted %d, want 30", issued, out.attempted)
	}
	if out.failed != 2 || out.refused != 4 {
		t.Fatalf("failed %d refused %d, want 2 and 4", out.failed, out.refused)
	}
}

// TestWorkloadsTiny runs every workload at test size, untraced and traced,
// with its correctness and accounting checks.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 5, seconds: 400 * time.Millisecond, tiny: true, workers: runtime.NumCPU(), workDir: t.TempDir()}
			out, err := tracedPass(w, cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Fatalf("attempted %d, failed %d", out.attempted, out.failed)
			}
			for _, d := range endToEnd {
				v, ok := out.e2e[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Errorf("end-to-end %s = %v (measured %v)", d.Name, v, ok)
				}
			}
			for k := range out.layer {
				if !hasMetric(perLayer, k) {
					t.Errorf("layer metric %s is not in the catalog", k)
				}
			}
		})
	}
}
