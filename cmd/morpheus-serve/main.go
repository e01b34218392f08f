// Command morpheus-serve demonstrates the factorized scoring service: it
// trains a model over a generated normalized dataset (never materializing
// the join), builds a cached-partial Scorer, and then serves scoring
// requests read from stdin.
//
// Usage:
//
//	morpheus-serve -ns 20000 -ds 20 -nr 1000 -dr 80 -model logreg <ids.txt
//	morpheus-serve -mutable            # versioned store + online updates
//	morpheus-serve -replicas 4         # hash-sharded scoring fleet
//	morpheus-serve -replicas 4 -placement replicated
//
// Each input line is one request: a row id, or a comma-separated list of
// row ids (CSV) served as one batch. The special line "all" scores every
// row. Output is "id,score" per request row. With -compare, the tool first
// reports the cached-partial speedup over rerunning the factorized
// predictor.
//
// With -mutable the feature store is wrapped in a versioned epoch store
// (internal/epoch) served by an epoch-aware scorer, and three more
// request forms mutate it online:
//
//	set s 17 0.5,1.25,...     # stage new features for entity tuple 17
//	set r1 3 0.1,0.2,...      # stage new features for tuple 3 of R_1
//	commit                    # publish staged rows as one new epoch
//	epoch                     # print the epoch currently served
//
// Staged rows are invisible until commit; commit patches the scorer's
// cached partial products incrementally (subtract old contribution, add
// new) before returning, so the next score already reflects the new
// epoch. Scoring requests racing a commit observe exactly one epoch per
// batch — never a mix.
//
// -replicas N serves through an N-replica fleet behind the serve.Router:
// -placement sharded (default) hash-partitions row ids so the entity-side
// partial cache exists once across the fleet; -placement replicated gives
// every replica the full cache and rotates batches round-robin. With
// -mutable the fleet is replicated EpochScorers sharing one store — a
// commit publishes to every replica before returning. -queue bounds the
// admission queue; when it is full, requests are rejected with
// ErrOverloaded instead of queueing without bound.
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops admitting
// new requests, answers every request already accepted, flushes output,
// reports the admission stats, and exits 0 — no request is dropped
// mid-batch.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/epoch"
	"repro/internal/la"
	"repro/internal/ml"
	"repro/internal/serve"
)

// scorer is what request handling needs from the serving backend; both
// serve.Scorer and serve.Router satisfy it.
type scorer interface {
	serve.BatchScorer
	ScoreBatch(ids []int) ([]float64, error)
	ScoreAll() []float64
}

func main() {
	var (
		ns      = flag.Int("ns", 20000, "entity tuples (fact-table rows)")
		ds      = flag.Int("ds", 20, "entity features")
		nr      = flag.Int("nr", 1000, "attribute-table tuples")
		dr      = flag.Int("dr", 80, "attribute features")
		tables  = flag.Int("tables", 1, "attribute tables (star schema when > 1)")
		model   = flag.String("model", "logreg", "model: logreg | linreg")
		iters   = flag.Int("iters", 20, "training iterations")
		step    = flag.Float64("step", 1e-6, "gradient-descent step size")
		seed    = flag.Int64("seed", 1, "data generator seed")
		batch   = flag.Int("batch", 256, "micro-batch size")
		delay   = flag.Duration("delay", 100*time.Microsecond, "micro-batch max delay")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		compare = flag.Bool("compare", false, "report cached vs naive scoring throughput before serving")
		mutable = flag.Bool("mutable", false, "serve from a versioned epoch store accepting set/commit/epoch requests")
		fleet   = flag.Int("replicas", 1, "serving-fleet width (1 = single scorer)")
		place   = flag.String("placement", "sharded", "fleet cache placement: sharded | replicated (-mutable fleets are always replicated)")
		queue   = flag.Int("queue", 0, "admission queue depth; full queue rejects with ErrOverloaded (0 = workers x batch)")
	)
	flag.Parse()

	head := serve.Logistic
	binarize := true
	if *model == "linreg" {
		head = serve.Linear
		binarize = false
	} else if *model != "logreg" {
		fail("unknown -model %q (want logreg or linreg)", *model)
	}

	nm, err := generate(*ns, *ds, *nr, *dr, *tables, *seed)
	if err != nil {
		fail("generating data: %v", err)
	}
	fmt.Fprintf(os.Stderr, "dataset: %d rows x %d features over %d attribute table(s)\n",
		nm.Rows(), nm.Cols(), nm.NumTables())
	y := datagen.Labels(nm, 0.1, binarize, *seed+1)
	start := time.Now()
	var w *la.Dense
	if head == serve.Logistic {
		w, err = ml.LogisticRegressionGD(nm, y, nil, ml.Options{Iters: *iters, StepSize: *step})
	} else {
		w, err = ml.LinearRegressionGD(nm, y, nil, ml.Options{Iters: *iters, StepSize: *step})
	}
	if err != nil {
		fail("training: %v", err)
	}
	fmt.Fprintf(os.Stderr, "trained %s factorized in %v\n", *model, time.Since(start).Round(time.Millisecond))

	var placement serve.Placement
	switch *place {
	case "sharded":
		placement = serve.HashSharded
	case "replicated":
		placement = serve.Replicated
	default:
		fail("unknown -placement %q (want sharded or replicated)", *place)
	}
	if *fleet < 1 {
		fail("-replicas must be >= 1, got %d", *fleet)
	}

	var sc scorer
	var st *epoch.Store
	if *mutable {
		st, err = epoch.NewStore(nm)
		if err != nil {
			fail("building epoch store: %v", err)
		}
		if *fleet > 1 {
			rt, err := serve.NewEpochFleet(st, w, head, *fleet)
			if err != nil {
				fail("building epoch fleet: %v", err)
			}
			fmt.Fprintf(os.Stderr, "mutable fleet: %d replicated replicas at epoch %d (set/commit/epoch requests enabled)\n",
				rt.NumReplicas(), st.Version())
			sc = rt
		} else {
			es, err := serve.NewEpochScorer(st, w, head)
			if err != nil {
				fail("building scorer: %v", err)
			}
			fmt.Fprintf(os.Stderr, "mutable store at epoch %d (set/commit/epoch requests enabled)\n", es.Version())
			sc = es
		}
	} else {
		if *compare {
			s, err := serve.NewScorer(nm, w, head)
			if err != nil {
				fail("building scorer: %v", err)
			}
			reportSpeedup(s, nm, head, w)
		}
		if *fleet > 1 {
			rt, err := serve.NewScorerFleet(nm, w, head, *fleet, placement)
			if err != nil {
				fail("building fleet: %v", err)
			}
			fmt.Fprintf(os.Stderr, "serving fleet: %d %s replicas\n", rt.NumReplicas(), rt.Placement())
			sc = rt
		} else {
			s, err := serve.NewScorer(nm, w, head)
			if err != nil {
				fail("building scorer: %v", err)
			}
			sc = s
		}
	}
	b := serve.NewBatcher(sc, serve.BatchOptions{MaxBatch: *batch, MaxDelay: *delay, Workers: *workers, QueueDepth: *queue})
	defer b.Close()

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	// Graceful shutdown: stop admitting, answer everything already
	// accepted, flush, report, exit — instead of dying mid-batch. outMu
	// orders the final flush against the request loop's writes.
	var outMu sync.Mutex
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "morpheus-serve: %v — draining in-flight batches\n", s)
		b.Close()
		outMu.Lock()
		out.Flush()
		bs := b.Stats()
		fmt.Fprintf(os.Stderr, "morpheus-serve: drained; accepted=%d rejected=%d batches=%d peak_queue=%d\n",
			bs.Accepted, bs.Rejected, bs.Batches, bs.PeakQueue)
		os.Exit(0)
	}()

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		outMu.Lock()
		if st != nil && handleMutation(line, st, out) {
			out.Flush()
			outMu.Unlock()
			continue
		}
		handleRequest(line, sc, b, out)
		// Flush per request so interactive callers see their response
		// immediately rather than at buffer/EOF boundaries.
		out.Flush()
		outMu.Unlock()
	}
	if err := in.Err(); err != nil {
		fail("reading stdin: %v", err)
	}
}

// handleMutation serves the -mutable request forms; it reports whether
// the line was a mutation request (handled or rejected) as opposed to a
// scoring request.
func handleMutation(line string, st *epoch.Store, out *bufio.Writer) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "epoch":
		fmt.Fprintf(out, "epoch,%d\n", st.Version())
		return true
	case "commit":
		c, err := st.Commit()
		if err != nil {
			fmt.Fprintf(os.Stderr, "commit failed: %v\n", err)
			return true
		}
		fmt.Fprintf(out, "epoch,%d,rows,%d\n", c.Version, c.RowsChanged())
		return true
	case "set":
		if len(fields) != 4 {
			fmt.Fprintf(os.Stderr, "skipping %q: want 'set s|rN ROW v1,v2,...'\n", line)
			return true
		}
		row, err := strconv.Atoi(fields[2])
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipping %q: bad row %q\n", line, fields[2])
			return true
		}
		vals, err := parseVals(fields[3])
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipping %q: %v\n", line, err)
			return true
		}
		switch {
		case fields[1] == "s":
			err = st.UpsertEntity(row, vals)
		case strings.HasPrefix(fields[1], "r"):
			t, terr := strconv.Atoi(fields[1][1:])
			if terr != nil || t < 1 {
				fmt.Fprintf(os.Stderr, "skipping %q: bad table %q (want s or r1..r%d)\n", line, fields[1], st.NumTables())
				return true
			}
			err = st.UpsertAttr(t-1, row, vals)
		default:
			fmt.Fprintf(os.Stderr, "skipping %q: bad table %q (want s or r1..r%d)\n", line, fields[1], st.NumTables())
			return true
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipping %q: %v\n", line, err)
			return true
		}
		fmt.Fprintf(out, "staged,%d\n", st.Pending())
		return true
	}
	return false
}

func parseVals(csv string) ([]float64, error) {
	fields := strings.Split(csv, ",")
	vals := make([]float64, 0, len(fields))
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", f)
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("no values")
	}
	return vals, nil
}

// handleRequest serves one input line: "all", a single row id, or a
// comma-separated batch. Bad requests are reported to stderr and skipped.
func handleRequest(line string, sc scorer, b *serve.Batcher, out *bufio.Writer) {
	if line == "all" {
		for id, v := range sc.ScoreAll() {
			fmt.Fprintf(out, "%d,%g\n", id, v)
		}
		return
	}
	ids, err := parseIDs(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipping %q: %v\n", line, err)
		return
	}
	if len(ids) == 1 {
		v, err := b.Score(ids[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipping %d: %v\n", ids[0], err)
			return
		}
		fmt.Fprintf(out, "%d,%g\n", ids[0], v)
		return
	}
	vs, err := sc.ScoreBatch(ids)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipping %q: %v\n", line, err)
		return
	}
	for i, id := range ids {
		fmt.Fprintf(out, "%d,%g\n", id, vs[i])
	}
}

func generate(ns, ds, nr, dr, tables int, seed int64) (*core.NormalizedMatrix, error) {
	if tables <= 1 {
		return datagen.PKFK(datagen.PKFKSpec{NS: ns, DS: ds, NR: nr, DR: dr, Seed: seed})
	}
	nrs := make([]int, tables)
	drs := make([]int, tables)
	for i := range nrs {
		nrs[i] = nr
		drs[i] = dr
	}
	return datagen.Star(datagen.StarSpec{NS: ns, DS: ds, NR: nrs, DR: drs, Seed: seed})
}

// reportSpeedup times scoring every row via the cached partials against
// rerunning the factorized predictor, mirroring BenchmarkServe*.
func reportSpeedup(sc *serve.Scorer, nm *core.NormalizedMatrix, head serve.Head, w *la.Dense) {
	const reps = 5
	naive := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if head == serve.Logistic {
			ml.PredictLogistic(nm, w)
		} else {
			ml.PredictLinear(nm, w)
		}
		if d := time.Since(t0); d < naive {
			naive = d
		}
	}
	cached := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		sc.ScoreAll()
		if d := time.Since(t0); d < cached {
			cached = d
		}
	}
	fmt.Fprintf(os.Stderr, "scoring %d rows: naive factorized %v, cached partials %v (%.1fx)\n",
		nm.Rows(), naive, cached, float64(naive)/float64(cached))
}

func parseIDs(line string) ([]int, error) {
	fields := strings.Split(line, ",")
	ids := make([]int, 0, len(fields))
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		id, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad row id %q", f)
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no row ids")
	}
	return ids, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "morpheus-serve: "+format+"\n", args...)
	os.Exit(1)
}
