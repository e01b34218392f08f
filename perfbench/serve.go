package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/epoch"
	"repro/internal/la"
	"repro/internal/ml"
	"repro/internal/serve"
)

// The serving workloads share one PK-FK feature store, a logistic head
// and an open-loop generator of single-row reads with uniform row ids.
// Rates, the ladder, the latency limit and the commit schedule are fixed
// here; nothing is derived from a measurement taken while running.
//
// The store has tuple ratio nS/nR = 20 and feature ratio dR/dS = 4, the
// shape of the paper's synthetic PK-FK setting. The rates are fractions
// of the capacity C = 96000 reads/s measured on a 2-vCPU machine: the
// highest rate at which the fleet answered every read when the
// generator could overrun the admission queue, with refusals from
// 128000/s on (a few from 48000/s on while that machine was busy).
// At the reference rate, C/6, the Batcher coalesces about two reads per
// gather pass; below about 12000/s reads arrive further apart than its
// 100 µs MaxDelay, batches hold one row, and the median read mostly
// waits out that delay. The side rate is C/3.
const (
	serveNS, serveDS = 100000, 10
	serveNR, serveDR = 5000, 40
	serveRefRate     = 16000 // requests/s: main_p50_ms, C/6
	serveSideRate    = 32000 // requests/s: side_p50_ms on serve-read, C/3
	// serveLimitUS is the latency limit at the tail percentile, µs. On
	// the busy 2-vCPU machine the generator's own sends ran up to 17 ms
	// late at p99 whatever the rate, so a limit near 10 ms measured the
	// machine rather than the program.
	serveLimitUS = 25000
	serveMaxBad  = 0.001
	serveGate    = 512         // sampled reads checked before the timed part
	serveWarmup  = time.Second // untimed load at the reference rate before the timed part
	serveTol     = 1e-12
	// serve-mutate's writer: one commit of mutateRows attribute-row
	// upserts every 1/mutateRate seconds, so each commit rewrites 0.64 %
	// of the attribute table and comes once per 160 reads at the
	// reference rate.
	mutateRate = 100
	mutateRows = 32
)

// serveLadder is the fixed rate ladder of serve-read, in requests/s:
// from the reference rate C/6 up to 2C.
var serveLadder = []float64{16000, 32000, 48000, 64000, 96000, 128000, 192000}

// serveSizes returns the store shape and rates for the size class.
func serveSizes(cfg config) (nS, nR int, ref, side float64, ladder []float64) {
	if cfg.tiny {
		return 2000, 100, 400, 800, []float64{400, 800}
	}
	return serveNS, serveNR, serveRefRate, serveSideRate, serveLadder
}

// serveData is the generated store, model and expected scores.
type serveData struct {
	nm   *core.NormalizedMatrix
	w    *la.Dense
	want []float64
	rng  *rand.Rand
}

func newServeData(cfg config) (*serveData, error) {
	nS, nR, _, _, _ := serveSizes(cfg)
	nm, err := datagen.PKFK(datagen.PKFKSpec{NS: nS, DS: serveDS, NR: nR, DR: serveDR, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	w := la.NewDense(nm.Cols(), 1)
	for i := range w.Data() {
		w.Data()[i] = rng.NormFloat64()
	}
	return &serveData{nm: nm, w: w, want: ml.PredictLogistic(nm, w).Data(), rng: rng}, nil
}

// warmupFor is the untimed load before the timed part: the fleet's pools
// and the generator's issuers are warm when measuring starts.
func warmupFor(cfg config) time.Duration {
	if cfg.tiny {
		return serveWarmup / 10
	}
	return serveWarmup
}

// rowIDs draws n uniform row ids.
func (d *serveData) rowIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = d.rng.Intn(d.nm.Rows())
	}
	return ids
}

// reader issues single-row reads through a Batcher, traced or not, and
// checks each answer.
type reader struct {
	b       *serve.Batcher
	tr      *tracer
	reg     *requestRegistry
	issuers int
	check   func(row int, v float64) bool
}

// issuersFor sizes the generator's issuer pool: 256 per worker, and never
// more than the Batcher's admission queue holds. An issuer has at most one
// request outstanding, so the queue cannot fill and no read is refused
// with ErrOverloaded; a rate the fleet cannot keep shows instead as sends
// delayed by busy issuers and as latency from the due time.
func issuersFor(b *serve.Batcher, workers int) int { return min(256*workers, b.QueueDepth()) }

// step runs one open-loop load step and records the batch size the
// Batcher formed during it.
func (r *reader) step(rate float64, dur time.Duration, ids []int) *loadStep {
	s0 := r.b.Stats()
	s := openLoop(rate, dur, ids, r.issuers, r.read)
	s1 := r.b.Stats()
	if b := s1.Batches - s0.Batches; b > 0 {
		s.batchRows = float64(s1.Scored-s0.Scored) / float64(b)
	}
	return s
}

func (r *reader) read(_ int, row int) error {
	var trace uint64
	var sent int64
	traced := r.tr.on()
	if traced {
		trace, sent = r.tr.newID(), r.tr.now()
		r.reg.admit(row, trace, sent)
	}
	v, err := r.b.Score(row)
	if traced {
		r.tr.record(span{ID: trace, Trace: trace, Name: "serve.batcher.score", Start: sent, End: r.tr.now()})
		if err != nil {
			r.reg.drop(row, trace)
		}
	}
	if err != nil {
		return err
	}
	if !r.check(row, v) {
		return errWrong
	}
	return nil
}

// stepLine prints one load step for a reader of the output.
func stepLine(label string, s *loadStep, limitUS float64) string {
	lat := append([]float64(nil), s.lat...)
	t := tailOf(lat)
	return fmt.Sprintf("%-9s rate=%6.0f/s sent=%d ok=%d rejected=%d failed=%d wrong=%d p50=%.1fus p%.1f=%.1fus (n=%d) late_p99=%.1fus busy_late=%d batch_rows=%.2f meets=%v",
		label, s.rate, s.sent, s.ok, s.rejected, s.failed, s.wrong, percentile(lat, 0.5), 100*t.Q, t.Value, t.N,
		percentile(append([]float64(nil), s.late...), 0.99), s.busyLate, s.batchRows, s.meets(limitUS, serveMaxBad))
}

// fleetLayers fills the batcher, router and replica layer metrics from
// the traced pass's spans.
func fleetLayers(out *outcome, tr *tracer) {
	ss := indexSpans(tr.snapshot())
	for name, key := range map[string]string{
		"serve.batcher.queue":  "serve.batcher.queue_us",
		"serve.router.score":   "serve.router.score_us",
		"serve.replica.gather": "serve.replica.gather_us",
	} {
		us := ss.micros(name)
		if len(us) == 0 {
			continue
		}
		out.layer[key+"_p50"] = percentile(us, 0.5)
		out.layer[key+"_p99"] = percentile(us, 0.99)
	}
}

// batcherLayers records the batch size at the reference rate and the
// requests the Batcher refused over the timed part.
func batcherLayers(out *outcome, ref *loadStep, before, after serve.BatcherStats) {
	out.layer["serve.batcher.batch_rows_mean"] = ref.batchRows
	out.layer["serve.batcher.rejected"] = float64(after.Rejected - before.Rejected)
}

// gate reads sampled rows through the batcher before the timed part and
// compares them with the expected scores.
func gate(b *serve.Batcher, d *serveData) error {
	for _, row := range d.rowIDs(serveGate) {
		v, err := b.Score(row)
		if err != nil {
			return fmt.Errorf("gate read of row %d: %w", row, err)
		}
		if math.Abs(v-d.want[row]) > serveTol {
			return fmt.Errorf("gate: row %d scored %g, expected %g", row, v, d.want[row])
		}
	}
	return nil
}

// tally adds the steps' requests to the outcome and returns how many were
// issued. Refusals (ErrOverloaded) are counted apart from failures: they
// are admission control at work, not wrong answers.
func tally(out *outcome, steps ...*loadStep) int {
	issued := 0
	for _, s := range steps {
		issued += s.sent
		out.attempted += s.sent
		out.refused += s.rejected
		out.failed += s.failed + s.wrong
	}
	return issued
}

// checkConservation checks the batcher's accounting once it is closed:
// every issued request was accepted or rejected, and every accepted one
// answered.
func checkConservation(st serve.BatcherStats, issued int) error {
	if st.Accepted+st.Rejected != uint64(issued) || st.Scored != st.Accepted {
		return fmt.Errorf("batcher accounting: accepted %d + rejected %d vs issued %d, scored %d",
			st.Accepted, st.Rejected, issued, st.Scored)
	}
	return nil
}

type fleetSetup struct {
	rt     *serve.Router
	b      *serve.Batcher
	epochs *epoch.Store
	scorer []*serve.EpochScorer
}

func closeFleet(s *fleetSetup) error {
	s.b.Close()
	return nil
}

// batcherFor puts the Batcher in front of rt, through the router
// decorator when tracing.
func batcherFor(rt *serve.Router, reg *requestRegistry) *serve.Batcher {
	if reg != nil {
		return serve.NewBatcher(&tracedRouter{rt: rt, reg: reg}, serve.BatchOptions{})
	}
	return serve.NewBatcher(rt, serve.BatchOptions{})
}

// serve-read: main operation, a read at the reference rate; side
// operation, a read at the side rate. The ladder finds the highest rate
// that meets the limit.
func serveRead(cfg config, tr *tracer) (*outcome, error) {
	base := runtime.NumGoroutine()
	d, err := newServeData(cfg)
	if err != nil {
		return nil, err
	}
	_, _, ref, side, ladder := serveSizes(cfg)
	var reg *requestRegistry
	if tr != nil {
		reg = newRequestRegistry(tr)
	}
	setups := newSetupSampler(cfg, tr, func() (*fleetSetup, error) {
		var rt *serve.Router
		var err error
		if reg == nil {
			rt, err = serve.NewScorerFleet(d.nm, d.w, serve.Logistic, cfg.workers, serve.HashSharded)
		} else {
			reps := make([]serve.Replica, cfg.workers)
			for i := range reps {
				sh, err := serve.NewShardedScorer(d.nm, d.w, serve.Logistic, i, cfg.workers)
				if err != nil {
					return nil, err
				}
				reps[i] = &tracedReplica{Replica: sh, reg: reg}
			}
			rt, err = serve.NewRouter(reps, serve.HashSharded)
		}
		if err != nil {
			return nil, err
		}
		return &fleetSetup{rt: rt, b: batcherFor(rt, reg)}, nil
	}, closeFleet)
	st, err := setups.first()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.e2e[mResident] = residentMB()
	if err := gate(st.b, d); err != nil {
		st.b.Close()
		return out, err
	}
	issued := serveGate
	rd := &reader{b: st.b, tr: tr, reg: reg, issuers: issuersFor(st.b, cfg.workers), check: func(row int, v float64) bool {
		return math.Abs(v-d.want[row]) <= serveTol
	}}

	warm := rd.step(ref, warmupFor(cfg), d.rowIDs(int(ref*warmupFor(cfg).Seconds())+1))
	rw := startRuntime(base)
	half := cfg.seconds / 2
	s0 := st.b.Stats()
	refStep := rd.step(ref, half, d.rowIDs(int(ref*half.Seconds())+1))
	fmt.Println("  " + stepLine("reference", refStep, serveLimitUS))
	// The layer metrics describe the reference rate: the traced pass
	// records no spans on the ladder, where up to ten times as many
	// requests would swamp them.
	if tr != nil {
		tr.paused.Store(true)
	}
	// The ladder climbs until a step misses the limit, and always runs
	// the side rate. max_rate is the highest rate whose step and every
	// step below it met the limit.
	var sideStep *loadStep
	var ladderSteps []*loadStep
	maxRate, climbing := 0.0, true
	stepDur := half / time.Duration(len(ladder))
	for _, rate := range ladder {
		if !climbing && rate > side {
			break
		}
		s := rd.step(rate, stepDur, d.rowIDs(int(rate*stepDur.Seconds())+1))
		ladderSteps = append(ladderSteps, s)
		fmt.Println("  " + stepLine("ladder", s, serveLimitUS))
		if rate == side {
			sideStep = s
		}
		if climbing = climbing && s.meets(serveLimitUS, serveMaxBad); climbing {
			maxRate = rate
		}
	}
	rw.finish(out)
	batcherLayers(out, refStep, s0, st.b.Stats())
	st.b.Close()
	issued += tally(out, append([]*loadStep{warm, refStep}, ladderSteps...)...)
	if err := checkConservation(st.b.Stats(), issued); err != nil {
		return out, err
	}
	if sideStep == nil {
		return out, fmt.Errorf("side rate %v/s is not on the ladder", side)
	}

	out.e2e[mSideP50] = median(append([]float64(nil), sideStep.lat...)) / 1e3
	out.name("resident_mb", out.e2e[mResident], "MB", "live heap after set-up")
	readLatencies(out, refStep)
	out.name("lat_side_p50_us", out.e2e[mSideP50]*1e3, "us", fmt.Sprintf("at %.0f/s", side))
	out.name("max_rate_rps", maxRate, "1/s", fmt.Sprintf("highest ladder rate meeting p99 <= %d us with <= %.1f%% failed and no growing backlog", serveLimitUS, 100*serveMaxBad))
	out.layer["serve.max_rate_rps"] = maxRate
	out.layer["serve.batcher.batch_rows_side"] = sideStep.batchRows
	out.layer["gen.late_us_p99"] = percentile(append([]float64(nil), refStep.late...), 0.99)
	if tr != nil {
		fleetLayers(out, tr)
	}
	return out, finishSetup(out, setups, "sharded fleet caches + batcher")
}

// readLatencies sets main_p50_ms from the reference step and names its
// latency readings.
func readLatencies(out *outcome, s *loadStep) {
	lat := append([]float64(nil), s.lat...)
	p50 := percentile(lat, 0.5)
	t := tailOf(lat)
	out.e2e[mMainP50] = p50 / 1e3
	out.layer["serve.lat_p99_us"] = t.Value
	out.name("lat_p50_us", p50, "us", fmt.Sprintf("at the reference rate %.0f/s, from due time, n=%d", s.rate, len(lat)))
	out.name("lat_p99_us", t.Value, "us", fmt.Sprintf("p%.1f of %d", 100*t.Q, t.N))
}

// serve-mutate: main operation, a read at the reference rate while the
// writer commits; side operation, the Commit call, timed until it
// returns, which is when every replica serves the new epoch.
func serveMutate(cfg config, tr *tracer) (*outcome, error) {
	base := runtime.NumGoroutine()
	d, err := newServeData(cfg)
	if err != nil {
		return nil, err
	}
	_, nR, ref, _, _ := serveSizes(cfg)
	var reg *requestRegistry
	if tr != nil {
		reg = newRequestRegistry(tr)
	}
	setups := newSetupSampler(cfg, tr, func() (*fleetSetup, error) {
		es, err := epoch.NewStore(d.nm)
		if err != nil {
			return nil, err
		}
		fs := &fleetSetup{epochs: es}
		if reg == nil {
			if fs.rt, err = serve.NewEpochFleet(es, d.w, serve.Logistic, cfg.workers); err != nil {
				return nil, err
			}
			for i := 0; i < fs.rt.NumReplicas(); i++ {
				fs.scorer = append(fs.scorer, fs.rt.Replica(i).(*serve.EpochScorer))
			}
		} else {
			// NewEpochFleet's construction, by hand, so the replicas
			// can be wrapped.
			reps := make([]serve.Replica, cfg.workers)
			for i := range reps {
				sc, err := serve.NewEpochScorer(es, d.w, serve.Logistic)
				if err != nil {
					return nil, err
				}
				fs.scorer = append(fs.scorer, sc)
				reps[i] = &tracedReplica{Replica: sc, reg: reg}
			}
			if fs.rt, err = serve.NewRouter(reps, serve.Replicated); err != nil {
				return nil, err
			}
		}
		fs.b = batcherFor(fs.rt, reg)
		return fs, nil
	}, closeFleet)
	st, err := setups.first()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.e2e[mResident] = residentMB()
	if err := gate(st.b, d); err != nil {
		st.b.Close()
		return out, err
	}
	issued := serveGate
	rd := &reader{b: st.b, tr: tr, reg: reg, issuers: issuersFor(st.b, cfg.workers), check: func(_ int, v float64) bool { return v >= 0 && v <= 1 }}
	liveBase := st.epochs.LiveEpochs()

	// The writer's schedule and rows are drawn before the timed part.
	commits := max(int(mutateRate*cfg.seconds.Seconds()), 1)
	type upsert struct {
		row  int
		vals []float64
	}
	plan := make([][]upsert, commits)
	for c := range plan {
		plan[c] = make([]upsert, mutateRows)
		for k := range plan[c] {
			vals := make([]float64, serveDR)
			for j := range vals {
				vals[j] = d.rng.NormFloat64()
			}
			plan[c][k] = upsert{d.rng.Intn(nR), vals}
		}
	}
	readIDs := d.rowIDs(int(ref*cfg.seconds.Seconds()) + 1)

	warm := rd.step(ref, warmupFor(cfg), d.rowIDs(int(ref*warmupFor(cfg).Seconds())+1))
	rw := startRuntime(base)
	s0 := st.b.Stats()
	var commitUS, upsertUS []float64
	liveMax := 0
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		interval := time.Second / mutateRate
		for c, ups := range plan {
			if d := time.Until(start.Add(time.Duration(c) * interval)); d > 0 {
				time.Sleep(d)
			}
			for _, u := range ups {
				t0 := time.Now()
				if err := st.epochs.UpsertAttr(0, u.row, u.vals); err != nil {
					werr = err
					return
				}
				upsertUS = append(upsertUS, float64(time.Since(t0))/1e3)
			}
			t0 := time.Now()
			if _, err := st.epochs.Commit(); err != nil {
				werr = err
				return
			}
			commitUS = append(commitUS, float64(time.Since(t0))/1e3)
			liveMax = max(liveMax, st.epochs.LiveEpochs())
		}
	}()
	refStep := rd.step(ref, cfg.seconds, readIDs)
	wg.Wait()
	batcherLayers(out, refStep, s0, st.b.Stats())
	rw.finish(out)
	fmt.Println("  " + stepLine("reference", refStep, serveLimitUS))
	st.b.Close()
	issued += tally(out, warm, refStep)
	out.attempted += len(commitUS)
	if werr != nil {
		return out, fmt.Errorf("writer: %w", werr)
	}
	if err := checkConservation(st.b.Stats(), issued); err != nil {
		return out, err
	}
	if err := checkFinalEpoch(st, d); err != nil {
		return out, err
	}
	if live := st.epochs.LiveEpochs(); live != liveBase {
		return out, fmt.Errorf("%d live epochs after the run, %d before", live, liveBase)
	}

	ct := tailOf(append([]float64(nil), commitUS...))
	out.e2e[mSideP50] = median(append([]float64(nil), commitUS...)) / 1e3
	out.name("resident_mb", out.e2e[mResident], "MB", "live heap after set-up")
	out.name("writer", mutateRate, "1/s", fmt.Sprintf("commits of %d attribute-row upserts each", mutateRows))
	readLatencies(out, refStep)
	out.name("commit_p50_us", out.e2e[mSideP50]*1e3, "us", fmt.Sprintf("median of %d commits", len(commitUS)))
	out.name("commit_p99_us", ct.Value, "us", fmt.Sprintf("p%.1f of %d", 100*ct.Q, ct.N))
	out.layer["serve.commit_p99_us"] = ct.Value

	var patch time.Duration
	var rows uint64
	var patched uint64
	for _, sc := range st.scorer {
		ps := sc.PatchStats()
		patch += ps.TotalPatch
		rows += ps.Rows
		patched += ps.Commits
	}
	patchUS := float64(patch) / 1e3 / float64(len(commitUS))
	out.layer["epoch.upsert_us"] = mean(upsertUS)
	out.layer["serve.patch_us_mean"] = patchUS
	out.layer["serve.patch_rows"] = float64(rows) / float64(max(patched, 1))
	out.layer["epoch.publish_us"] = mean(commitUS) - patchUS
	out.layer["epoch.live_max"] = float64(liveMax)
	out.layer["gen.late_us_p99"] = percentile(append([]float64(nil), refStep.late...), 0.99)
	if tr != nil {
		fleetLayers(out, tr)
	}
	return out, finishSetup(out, setups, "epoch store + replicated epoch fleet + batcher")
}

// checkFinalEpoch compares the patched fleet with a scorer rebuilt from
// scratch at the final epoch.
func checkFinalEpoch(st *fleetSetup, d *serveData) error {
	snap := st.epochs.Pin()
	defer snap.Release()
	nm, err := snap.NormalizedMatrix()
	if err != nil {
		return err
	}
	fresh, err := serve.NewScorer(nm, d.w, serve.Logistic)
	if err != nil {
		return err
	}
	got, want := st.rt.ScoreAll(), fresh.ScoreAll()
	for i := range want {
		if math.Abs(got[i]-want[i]) > serveTol {
			return fmt.Errorf("final epoch: row %d scored %g by the patched fleet, %g by a rebuilt scorer", i, got[i], want[i])
		}
	}
	return nil
}
