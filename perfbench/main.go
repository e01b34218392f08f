// Command perfbench is the repository benchmark: four fixed workloads that
// drive the public entry points of plan, ml, core/la, chunk (with an
// in-process chunk server), serve and epoch, check every output, and
// print end-to-end metrics — or, with --trace 1, per-layer metrics timed
// from outside the program at each package's public seams.
//
// Run it from the repository root through the build wrapper:
//
//	bash perfbench/run.sh --workload serve-read --seed 3 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it print the
// same run for a reader, including the metric names the workloads are
// described by (train_s, lat_p99_us, commit_p50_us, ...). README.md in
// this directory lists the workloads, the metrics and which layer metric
// should move which end-to-end metric. --workload all runs the four in a
// row.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and fixes its unit.
type metricDef struct {
	Name string
	Unit string
}

// The end-to-end metrics every workload reports (BENCHMARK.json
// end_to_end). "main" is the operation a user of the workload waits on
// and "side" the second one it is judged by; README.md says which
// operations those are for each workload. Tail latencies are printed with
// their sample counts but are not among them: on a small shared machine
// their run-to-run spread is several times any usable bound.
const (
	mSetup    = "setup_s"
	mResident = "resident_mb"
	mMainP50  = "main_p50_ms"
	mSideP50  = "side_p50_ms"
)

var endToEnd = []metricDef{
	{mSetup, "s"},
	{mResident, "MB"},
	{mMainP50, "ms"},
	{mSideP50, "ms"},
}

// perLayer is the traced run's catalog (BENCHMARK.json per_layer). Every
// workload reports every entry; a layer the workload does not exercise
// reads 0, which is the prediction for the bypass side. Volume metrics of
// the out-of-core layers are per training job set.
var perLayer = []metricDef{
	{"plan.choose_us", "us"},
	{"plan.plan_us", "us"},
	{"plan.factorized", "bool"},
	{"plan.pushdown", "bool"},
	{"core.mul_s", "s"},
	{"core.leftmul_s", "s"},
	{"core.crossprod_s", "s"},
	{"core.agg_s", "s"},
	{"core.elementwise_s", "s"},
	{"core.calls", "count"},
	{"core.gbs", "computed-GB/s"},
	{"core.gflops", "computed-GFLOP/s"},
	{"ml.self_s", "s"},
	{"la.mul_s", "s"},
	{"la.leftmul_s", "s"},
	{"la.other_s", "s"},
	{"la.stream_gbs", "GB/s"},
	{"chunk.logreg_s", "s"},
	{"chunk.kmeans_s", "s"},
	{"chunk.crossprod_s", "s"},
	{"chunk.spill_s", "s"},
	{"chunk.spill_mb", "MB"},
	{"backend.local.read_s", "s"},
	{"backend.local.read_calls", "count"},
	{"backend.local.read_mb", "MB"},
	{"backend.local.write_s", "s"},
	{"backend.local.write_calls", "count"},
	{"backend.local.write_mb", "MB"},
	{"chunkd.get_s", "s"},
	{"chunkd.get_calls", "count"},
	{"chunkd.get_mb", "MB"},
	{"chunkd.put_s", "s"},
	{"chunkd.put_calls", "count"},
	{"chunkd.put_mb", "MB"},
	{"chunkd.exec_s", "s"},
	{"chunkd.exec_calls", "count"},
	{"chunkd.exec_mb", "MB"},
	{"chunk.io.bytes_read_mb", "MB"},
	{"chunk.io.wire_mb", "MB"},
	{"chunk.io.chunks_read", "count"},
	{"chunk.pushdown_share", "frac"},
	{"chunk.read_amp", "ratio"},
	{"serve.batcher.queue_us_p50", "us"},
	{"serve.batcher.queue_us_p99", "us"},
	{"serve.batcher.batch_rows_mean", "rows"},
	{"serve.batcher.batch_rows_side", "rows"},
	{"serve.batcher.rejected", "count"},
	{"serve.router.score_us_p50", "us"},
	{"serve.router.score_us_p99", "us"},
	{"serve.replica.gather_us_p50", "us"},
	{"serve.replica.gather_us_p99", "us"},
	{"serve.max_rate_rps", "1/s"},
	{"epoch.upsert_us", "us"},
	{"serve.patch_us_mean", "us"},
	{"serve.patch_rows", "count"},
	{"epoch.publish_us", "us"},
	{"epoch.live_max", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.goroutines_delta", "count"},
	{"serve.lat_p99_us", "us"},
	{"serve.commit_p99_us", "us"},
	{"gen.late_us_p99", "us"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans", "count"},
}

// buildDir is where, relative to the repository root, runs keep their
// spill directories and span dumps (the build wrapper puts the binary and
// the Go build cache there too).
const buildDir = ".bench_build"

// config is one run's settings. The sizes, rates and limits are constants
// of each workload; only the seed, the measuring time and the size class
// come from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	// tiny shrinks inputs and rates to test size.
	tiny bool
	// workers is the machine's CPU count, which is also the default
	// GOMAXPROCS: chunk workers and fleet width.
	workers int
	// workDir holds the run's spill directories.
	workDir string
}

// outcome is what one pass of a workload measured.
type outcome struct {
	attempted, failed int
	// refused counts requests the program turned away as overloaded.
	// They count as failed in the result and in failed_frac, but refusing
	// load beyond capacity is admission control working, so they do not
	// make the run incorrect.
	refused int
	e2e     map[string]float64
	layer   map[string]float64
	// named are the workload's metrics under the names its description
	// uses, printed for a reader.
	named []namedValue
	// io is the out-of-core read accounting of one job set (train-ooc);
	// the traced pass must reproduce the untraced pass's exactly.
	io *ioStats
}

type namedValue struct {
	name  string
	value float64
	unit  string
	note  string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) name(name string, value float64, unit, note string) {
	o.named = append(o.named, namedValue{name, value, unit, note})
}

// workload is one named benchmark input and the function that runs it.
// tr is nil for the untraced pass. Why each workload was chosen is
// recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	run  func(cfg config, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"train-inmem", trainInmem},
	{"train-ooc", trainOOC},
	{"serve-read", serveRead},
	{"serve-mutate", serveMutate},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

// run parses the flags, runs the chosen workloads, prints the result line
// and returns the exit code: 0 only when every output checked correct.
func run() int {
	name := flag.String("workload", "", "workload to run: train-inmem, train-ooc, serve-read, serve-mutate, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "measuring time of one run, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: creating work directory: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		workers: runtime.NumCPU(),
		workDir: work,
	}

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range todo {
		res := runWorkload(w, cfg, *trace == 1, filepath.Join(buildDir, "spans"))
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(todo) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload, untraced or traced, prints its block for
// a reader and returns its result.
func runWorkload(w workload, cfg config, traced bool, spanDir string) result {
	fmt.Printf("# %s seed=%d seconds=%v trace=%v workers=%d\n", w.name, cfg.seed, cfg.seconds, traced, cfg.workers)
	var out *outcome
	var err error
	if traced {
		out, err = tracedPass(w, cfg, spanDir)
	} else {
		out, err = checkedPass(w, cfg, nil)
	}
	res := result{Correct: err == nil, Metrics: map[string]metric{}}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		res.Attempted, res.Failed = 1, 1
		if out != nil {
			res.Attempted, res.Failed = max(out.attempted, 1), max(out.failed, 1)
		}
		return res
	}
	res.Attempted, res.Failed = out.attempted, out.failed+out.refused
	if out.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d operations failed or answered wrongly\n", w.name, out.failed)
	}
	if out.attempted > 0 {
		out.name("failed_frac", float64(res.Failed)/float64(out.attempted), "frac",
			fmt.Sprintf("%d failed and %d refused as overloaded of %d attempted", out.failed, out.refused, out.attempted))
	}
	for _, nv := range out.named {
		fmt.Printf("  %-30s %14.6g %-6s %s\n", nv.name, nv.value, nv.unit, nv.note)
	}
	defs, vals := endToEnd, out.e2e
	if traced {
		defs, vals = perLayer, out.layer
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !traced {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", w.name, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if !traced {
				res.Correct = false
				fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is %v\n", w.name, d.Name, v)
			}
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for k := range vals {
		if !hasMetric(defs, k) {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is not in the catalog\n", w.name, k)
		}
	}
	if traced {
		printLayers(res.Metrics)
	}
	if out.failed > 0 {
		res.Correct = false
	}
	return res
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

func printLayers(ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-30s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// checkedPass runs one pass and then checks that the goroutines it started
// have all ended.
func checkedPass(w workload, cfg config, tr *tracer) (*outcome, error) {
	base := runtime.NumGoroutine()
	out, err := w.run(cfg, tr)
	if err != nil {
		return out, err
	}
	if n := settleGoroutines(base); n != base {
		return out, fmt.Errorf("%d goroutines still running after the pass, %d before it", n, base)
	}
	return out, nil
}

// settleGoroutines waits up to two seconds for the goroutine count to fall
// back to base (exiting goroutines need a moment to be reaped) and returns
// the last count seen.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// tracedPass measures the workload twice, each for half the run: once
// untraced and once with every seam wrapped. The per-layer metrics come
// from the traced pass; the difference between the two passes' main
// operation is the tracing overhead. Both passes check their outputs, and
// the traced pass must read exactly the bytes the untraced one did.
func tracedPass(w workload, cfg config, spanDir string) (*outcome, error) {
	half := cfg
	half.seconds = cfg.seconds / 2
	plain, err := checkedPass(w, half, nil)
	if err != nil {
		return plain, fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer()
	out, err := checkedPass(w, half, tr)
	if err != nil {
		return out, fmt.Errorf("traced pass: %w", err)
	}
	if (plain.io == nil) != (out.io == nil) || (plain.io != nil && *plain.io != *out.io) {
		return out, fmt.Errorf("traced IOStats %+v differ from untraced %+v", out.io, plain.io)
	}
	out.attempted += plain.attempted
	out.failed += plain.failed
	out.refused += plain.refused
	base := plain.e2e[mMainP50]
	out.layer["trace.overhead_frac"] = (out.e2e[mMainP50] - base) / base
	out.name("trace.overhead", out.e2e[mMainP50]-base, "ms",
		fmt.Sprintf("traced main_p50 %.4g ms vs untraced %.4g ms", out.e2e[mMainP50], base))
	spans := tr.snapshot()
	out.layer["trace.spans"] = float64(len(spans))
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return out, err
	}
	fmt.Printf("  spans: %d written to %s\n", len(spans), path)
	return out, nil
}
