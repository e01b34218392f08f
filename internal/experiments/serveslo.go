package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/datagen"
	"repro/internal/epoch"
	"repro/internal/la"
	"repro/internal/serve"
)

// latencyRecorder accumulates per-request latencies across generator
// goroutines; each worker appends to its own slice, merged at the end.
type latencyRecorder struct {
	perWorker [][]time.Duration
}

func newLatencyRecorder(workers int) *latencyRecorder {
	return &latencyRecorder{perWorker: make([][]time.Duration, workers)}
}

func (l *latencyRecorder) add(worker int, d time.Duration) {
	l.perWorker[worker] = append(l.perWorker[worker], d)
}

// percentiles merges, sorts, and reads p50/p99/p999 in microseconds.
func (l *latencyRecorder) percentiles() (p50, p99, p999 float64, n int) {
	var all []time.Duration
	for _, w := range l.perWorker {
		all = append(all, w...)
	}
	if len(all) == 0 {
		return 0, 0, 0, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	at := func(q float64) float64 {
		idx := int(q * float64(len(all)-1))
		return float64(all[idx].Nanoseconds()) / 1e3
	}
	return at(0.50), at(0.99), at(0.999), len(all)
}

// slowBackend throttles every batch, making backend saturation
// deterministic for the overload segment.
type slowBackend struct {
	rt    *serve.Router
	delay time.Duration
}

func (s *slowBackend) Rows() int { return s.rt.Rows() }

func (s *slowBackend) ScoreBatchInto(ids []int, out []float64) error {
	time.Sleep(s.delay)
	return s.rt.ScoreBatchInto(ids, out)
}

// serveSLO is the serving-fleet latency harness: it builds single,
// replicated, and hash-sharded fleets behind the Batcher's admission
// queue, gates each against the single-scorer ground truth (including
// across a fleet-wide weight update), then drives closed-loop and
// open-loop load while recording latency percentiles, throughput, and
// rejections; an overload segment with a deliberately slow backend
// verifies excess load fails fast with ErrOverloaded, and an epoch-fleet
// commit storm re-checks the differential at the final epoch.
func serveSLO(cfg Config) (Result, error) {
	nR := cfg.scaled(500)
	nS := 20 * nR
	dS, dR := 10, 40
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 4
	}
	conc := cfg.SLOConc
	if conc <= 0 {
		conc = 8
	}
	window := cfg.SLODur
	if window <= 0 {
		window = 250 * time.Millisecond
	}
	const gateSamples = 512

	nm, err := datagen.PKFK(datagen.PKFKSpec{NS: nS, DS: dS, NR: nR, DR: dR, Seed: cfg.Seed})
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w1 := la.NewDense(nm.Cols(), 1)
	w2 := la.NewDense(nm.Cols(), 1)
	for i := 0; i < nm.Cols(); i++ {
		w1.Set(i, 0, rng.NormFloat64())
		w2.Set(i, 0, rng.NormFloat64())
	}
	truth1, err := serve.NewScorer(nm, w1, serve.Logistic)
	if err != nil {
		return Result{}, err
	}
	truth2, err := serve.NewScorer(nm, w2, serve.Logistic)
	if err != nil {
		return Result{}, err
	}
	want1, want2 := truth1.ScoreAll(), truth2.ScoreAll()

	// gate scores sampled ids through the batcher and compares against the
	// expected vector — the routed ≡ single differential the tests pin,
	// re-asserted here so a smoke run fails on divergence.
	gate := func(label string, b *serve.Batcher, want []float64, r *rand.Rand) error {
		for i := 0; i < gateSamples; i++ {
			id := r.Intn(nS)
			v, err := b.Score(id)
			if err == serve.ErrOverloaded {
				continue
			}
			if err != nil {
				return fmt.Errorf("serve-slo %s gate: %v", label, err)
			}
			if math.Abs(v-want[id]) > 1e-12 {
				return fmt.Errorf("serve-slo %s gate: row %d routed %g single %g", label, id, v, want[id])
			}
		}
		return nil
	}

	// closedLoop drives conc workers, each issuing the next request as
	// soon as the previous answer lands, for one window.
	closedLoop := func(b *serve.Batcher, seed int64) (*latencyRecorder, time.Duration, error) {
		rec := newLatencyRecorder(conc)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var firstErr atomic.Value
		start := time.Now()
		for g := 0; g < conc; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed + int64(g)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					t0 := time.Now()
					_, err := b.Score(r.Intn(nS))
					if err != nil && err != serve.ErrOverloaded {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					if err == nil {
						rec.add(g, time.Since(t0))
					}
				}
			}(g)
		}
		time.Sleep(window)
		close(stop)
		wg.Wait()
		if e := firstErr.Load(); e != nil {
			return nil, 0, e.(error)
		}
		return rec, time.Since(start), nil
	}

	res := Result{
		ID:     "serve-slo",
		Title:  "Serving fleet under load: latency SLO, admission control, placement",
		Header: []string{"segment", "replicas", "reqs/sec", "p50_µs", "p99_µs", "p999_µs", "rejected"},
	}

	configs := []struct {
		label     string
		n         int
		placement serve.Placement
	}{
		{"closed/single", 1, serve.Replicated},
		{"closed/replicated", replicas, serve.Replicated},
		{"closed/sharded", replicas, serve.HashSharded},
	}
	var primaryRate float64
	var primaryBatcher *serve.Batcher
	closeAll := []*serve.Batcher{}
	defer func() {
		for _, b := range closeAll {
			b.Close()
		}
	}()
	for ci, fc := range configs {
		rt, err := serve.NewScorerFleet(nm, w1, serve.Logistic, fc.n, fc.placement)
		if err != nil {
			return Result{}, err
		}
		b := serve.NewBatcher(rt, serve.BatchOptions{})
		closeAll = append(closeAll, b)
		grng := rand.New(rand.NewSource(cfg.Seed + int64(ci)))
		// Differential gate through the batcher, across a fleet-wide
		// weight update and back.
		if err := gate(fc.label, b, want1, grng); err != nil {
			return Result{}, err
		}
		if err := rt.UpdateWeights(w2); err != nil {
			return Result{}, err
		}
		if err := gate(fc.label+"/updated", b, want2, grng); err != nil {
			return Result{}, err
		}
		if err := rt.UpdateWeights(w1); err != nil {
			return Result{}, err
		}

		rec, elapsed, err := closedLoop(b, cfg.Seed+int64(100*ci))
		if err != nil {
			return Result{}, err
		}
		p50, p99, p999, n := rec.percentiles()
		rate := float64(n) / elapsed.Seconds()
		st := b.Stats()
		res.Rows = append(res.Rows, []string{
			fc.label, fmt.Sprintf("%d", fc.n), fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%.1f", p50), fmt.Sprintf("%.1f", p99), fmt.Sprintf("%.1f", p999),
			fmt.Sprintf("%d", st.Rejected),
		})
		if fc.label == "closed/sharded" {
			res.P50us, res.P99us, res.P999us = p50, p99, p999
			primaryRate = rate
			primaryBatcher = b
		}
	}

	// Open loop: fire fixed-rate arrival bursts at the sharded fleet
	// regardless of completions — the generator does not slow down when
	// the fleet does, so queue pressure and rejections are visible.
	targetRate := cfg.SLORate
	if targetRate <= 0 {
		targetRate = primaryRate / 2
		if targetRate > 20000 {
			targetRate = 20000 // keep the generator itself off the profile
		}
		if targetRate < 1000 {
			targetRate = 1000
		}
	}
	openRec := newLatencyRecorder(1)
	var openMu sync.Mutex
	var openRejected, openSent atomic.Int64
	var openWG sync.WaitGroup
	orng := rand.New(rand.NewSource(cfg.Seed + 7))
	perTick := int(targetRate / 1000)
	if perTick < 1 {
		perTick = 1
	}
	openIDs := make([]int, 0, perTick*int(window/time.Millisecond)+perTick)
	for i := 0; i < cap(openIDs); i++ {
		openIDs = append(openIDs, orng.Intn(nS))
	}
	tick := time.NewTicker(time.Millisecond)
	openStart := time.Now()
	next := 0
	for time.Since(openStart) < window {
		<-tick.C
		for k := 0; k < perTick && next < len(openIDs); k++ {
			id := openIDs[next]
			next++
			openSent.Add(1)
			openWG.Add(1)
			go func(id int) {
				defer openWG.Done()
				t0 := time.Now()
				_, err := primaryBatcher.Score(id)
				if err == serve.ErrOverloaded {
					openRejected.Add(1)
					return
				}
				if err == nil {
					d := time.Since(t0)
					openMu.Lock()
					openRec.add(0, d)
					openMu.Unlock()
				}
			}(id)
		}
	}
	tick.Stop()
	openWG.Wait()
	oElapsed := time.Since(openStart)
	op50, op99, op999, on := openRec.percentiles()
	res.Rows = append(res.Rows, []string{
		fmt.Sprintf("open@%.0f/s", targetRate), fmt.Sprintf("%d", replicas),
		fmt.Sprintf("%.0f", float64(on)/oElapsed.Seconds()),
		fmt.Sprintf("%.1f", op50), fmt.Sprintf("%.1f", op99), fmt.Sprintf("%.1f", op999),
		fmt.Sprintf("%d", openRejected.Load()),
	})

	// Overload: a deliberately slow backend behind a small queue. Excess
	// requests must fail fast with ErrOverloaded — bounded rejection
	// latency while the backend is orders of magnitude slower.
	overRT, err := serve.NewScorerFleet(nm, w1, serve.Logistic, replicas, serve.HashSharded)
	if err != nil {
		return Result{}, err
	}
	slow := &slowBackend{rt: overRT, delay: 5 * time.Millisecond}
	ob := serve.NewBatcher(slow, serve.BatchOptions{MaxBatch: 16, MaxDelay: 10 * time.Microsecond, Workers: 1, QueueDepth: 16})
	var maxReject atomic.Int64
	var overWG sync.WaitGroup
	overStop := make(chan struct{})
	for g := 0; g < 32; g++ {
		overWG.Add(1)
		go func(seed int64) {
			defer overWG.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-overStop:
					return
				default:
				}
				t0 := time.Now()
				_, err := ob.Score(r.Intn(nS))
				if err == serve.ErrOverloaded {
					d := time.Since(t0).Nanoseconds()
					for {
						cur := maxReject.Load()
						if d <= cur || maxReject.CompareAndSwap(cur, d) {
							break
						}
					}
				}
			}
		}(cfg.Seed + int64(g))
	}
	time.Sleep(window)
	close(overStop)
	overWG.Wait()
	overStats := ob.Stats()
	ob.Close()
	if overStats.Rejected == 0 {
		return Result{}, fmt.Errorf("serve-slo: saturated fleet rejected nothing — admission control inert")
	}
	if rej := time.Duration(maxReject.Load()); rej > 250*time.Millisecond {
		return Result{}, fmt.Errorf("serve-slo: slowest rejection took %v — overload is blocking, not failing fast", rej)
	}
	res.Rows = append(res.Rows, []string{
		"overload/slow-backend", fmt.Sprintf("%d", replicas),
		fmt.Sprintf("%.0f", float64(overStats.Accepted)/window.Seconds()),
		"-", "-",
		fmt.Sprintf("%.1f", float64(maxReject.Load())/1e3),
		fmt.Sprintf("%d", overStats.Rejected),
	})
	res.Rejected = overStats.Rejected + uint64(openRejected.Load())

	// Epoch fleet: a replicated EpochScorer fleet under a commit storm,
	// scored through the batcher, with the final-epoch differential.
	st, err := epoch.NewStore(nm)
	if err != nil {
		return Result{}, err
	}
	ert, err := serve.NewEpochFleet(st, w1, serve.Logistic, replicas)
	if err != nil {
		return Result{}, err
	}
	eb := serve.NewBatcher(ert, serve.BatchOptions{})
	var stormScored atomic.Int64
	stormStop := make(chan struct{})
	var stormWG sync.WaitGroup
	for g := 0; g < conc/2+1; g++ {
		stormWG.Add(1)
		go func(seed int64) {
			defer stormWG.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stormStop:
					return
				default:
				}
				if _, err := eb.Score(r.Intn(nS)); err == nil {
					stormScored.Add(1)
				}
			}
		}(cfg.Seed + int64(g) + 50)
	}
	wrng := rand.New(rand.NewSource(cfg.Seed + 99))
	row := make([]float64, dR)
	commits := 0
	stormStart := time.Now()
	for commits < 20 || time.Since(stormStart) < window {
		for j := range row {
			row[j] = wrng.NormFloat64()
		}
		if err := st.UpsertAttr(0, wrng.Intn(nR), row); err != nil {
			return Result{}, err
		}
		if _, err := st.Commit(); err != nil {
			return Result{}, err
		}
		commits++
	}
	stormDur := time.Since(stormStart)
	close(stormStop)
	stormWG.Wait()
	eb.Close()
	snap := st.Pin()
	curNM, err := snap.NormalizedMatrix()
	if err != nil {
		return Result{}, err
	}
	fresh, err := serve.NewScorer(curNM, w1, serve.Logistic)
	if err != nil {
		return Result{}, err
	}
	got, want := ert.ScoreAll(), fresh.ScoreAll()
	snap.Release()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			return Result{}, fmt.Errorf("serve-slo: epoch fleet diverged from rebuild at row %d: %g vs %g", i, got[i], want[i])
		}
	}
	res.Rows = append(res.Rows, []string{
		"epoch-storm", fmt.Sprintf("%d", replicas),
		fmt.Sprintf("%.0f", float64(stormScored.Load())/stormDur.Seconds()),
		"-", "-", "-",
		fmt.Sprintf("%d", commits),
	})

	res.Notes = fmt.Sprintf(
		"nS=%d nR=%d dS=%d dR=%d replicas=%d conc=%d window=%v; routed ≡ single ≤1e-12 gated through the Batcher across UpdateWeights and %d epoch commits; overload rejects fast (max %.1fµs); epoch-storm column: commits",
		nS, nR, dS, dR, replicas, conc, window, commits, float64(maxReject.Load())/1e3)
	return res, nil
}

func init() {
	register("serve-slo", serveSLO)
}
