package serve

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateScorer blocks every batch until the gate is released, making
// saturation deterministic: while one batch is stuck in the backend, the
// admission queue fills and later arrivals must be rejected.
type gateScorer struct {
	rows  int
	gate  chan struct{}
	calls atomic.Int32
}

func (g *gateScorer) Rows() int { return g.rows }

func (g *gateScorer) ScoreBatchInto(ids []int, out []float64) error {
	g.calls.Add(1)
	<-g.gate
	for i, id := range ids {
		out[i] = float64(id)
	}
	return nil
}

// TestBatcherOverloadRejectsFast is the admission-control gate: with the
// backend saturated, excess requests must fail with ErrOverloaded
// promptly — without waiting on the stuck backend — and every accepted
// request must still be answered correctly once the backend recovers.
func TestBatcherOverloadRejectsFast(t *testing.T) {
	sc := &gateScorer{rows: 64, gate: make(chan struct{})}
	b := NewBatcher(sc, BatchOptions{MaxBatch: 1, MaxDelay: time.Microsecond, Workers: 1, QueueDepth: 4})
	defer b.Close()

	const callers = 64
	type result struct {
		id    int
		score float64
		err   error
		dur   time.Duration
	}
	results := make(chan result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			start := time.Now()
			v, err := b.Score(id)
			results <- result{id: id, score: v, err: err, dur: time.Since(start)}
		}(i % sc.rows)
	}

	// Hold the gate long enough that any rejection that waited on the
	// backend would show up in its latency.
	const hold = 300 * time.Millisecond
	deadline := time.Now().Add(hold)
	for b.Stats().Rejected == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if b.Stats().Rejected == 0 {
		t.Fatal("saturated batcher never rejected: admission queue is unbounded")
	}
	time.Sleep(time.Until(deadline))
	close(sc.gate)
	wg.Wait()
	close(results)

	var accepted, rejected int
	for r := range results {
		switch {
		case r.err == nil:
			accepted++
			if r.score != float64(r.id) {
				t.Fatalf("Score(%d) = %g under overload", r.id, r.score)
			}
		case errors.Is(r.err, ErrOverloaded):
			rejected++
			if r.dur > hold/2 {
				t.Fatalf("rejection took %v — it queued behind the stuck backend instead of failing fast", r.dur)
			}
		default:
			t.Fatalf("unexpected error under overload: %v", r.err)
		}
	}
	if rejected == 0 {
		t.Fatal("no caller observed ErrOverloaded")
	}
	st := b.Stats()
	if st.Accepted != uint64(accepted) || st.Rejected != uint64(rejected) {
		t.Fatalf("stats %+v disagree with observed accepted=%d rejected=%d", st, accepted, rejected)
	}
	if st.Accepted+st.Rejected != callers {
		t.Fatalf("accepted %d + rejected %d != %d attempts", st.Accepted, st.Rejected, callers)
	}
	if st.Scored != st.Accepted {
		t.Fatalf("scored %d != accepted %d: an admitted request was dropped", st.Scored, st.Accepted)
	}
	if st.PeakQueue == 0 || st.PeakQueue > b.QueueDepth() {
		t.Fatalf("peak queue %d outside (0, %d]", st.PeakQueue, b.QueueDepth())
	}
}

// TestBatcherSlowBackendSaturation drives a slow (but moving) backend
// past its throughput with a tiny queue: the batcher must keep serving,
// reject the excess, and answer every accepted request — the queue bounds
// latency instead of growing without limit.
func TestBatcherSlowBackendSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	nm := randPKFK(rng, false)
	sc, err := NewScorer(nm, randWeights(rng, nm.Cols()), Linear)
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingScorer{Scorer: sc, perBatch: 2 * time.Millisecond}
	b := NewBatcher(cs, BatchOptions{MaxBatch: 4, MaxDelay: 10 * time.Microsecond, Workers: 1, QueueDepth: 2})
	defer b.Close()

	want := make([]float64, nm.Rows())
	for i := range want {
		want[i], _ = sc.ScoreRow(i)
	}
	const callers = 8
	const perCaller = 30
	var wg sync.WaitGroup
	var bad atomic.Int32
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perCaller; i++ {
				id := r.Intn(nm.Rows())
				v, err := b.Score(id)
				if errors.Is(err, ErrOverloaded) {
					continue
				}
				if err != nil || v != want[id] {
					bad.Add(1)
				}
			}
		}(int64(g + 11))
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d accepted requests answered wrongly under saturation", n)
	}
	st := b.Stats()
	if st.Accepted+st.Rejected != callers*perCaller {
		t.Fatalf("stats lost requests: %+v", st)
	}
	if st.Scored != st.Accepted {
		t.Fatalf("scored %d != accepted %d", st.Scored, st.Accepted)
	}
}

// TestScoreAfterCloseNeverHangs is the regression test for the
// unbuffered-send hang: Score on a closed batcher must return
// ErrBatcherClosed immediately, never block.
func TestScoreAfterCloseNeverHangs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nm := randPKFK(rng, false)
	sc, err := NewScorer(nm, randWeights(rng, nm.Cols()), Linear)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(sc, BatchOptions{})
	b.Close()

	done := make(chan error, 1)
	go func() {
		_, err := b.Score(0)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrBatcherClosed) {
			t.Fatalf("Score after Close = %v, want ErrBatcherClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Score after Close hung")
	}
	// The historical name must stay interchangeable with the documented
	// sentinel: existing callers compare with == ErrClosed.
	if ErrClosed != ErrBatcherClosed {
		t.Fatal("ErrClosed is no longer an alias of ErrBatcherClosed")
	}
}

// TestBatcherCloseScoreStorm races Close against a storm of Score calls:
// every call must resolve (score, ErrOverloaded, or ErrBatcherClosed) —
// no caller may hang — and every admitted request must be answered even
// when Close lands mid-queue.
func TestBatcherCloseScoreStorm(t *testing.T) {
	for round := 0; round < 20; round++ {
		rng := rand.New(rand.NewSource(int64(43 + round)))
		nm := randPKFK(rng, false)
		sc, err := NewScorer(nm, randWeights(rng, nm.Cols()), Linear)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBatcher(sc, BatchOptions{MaxBatch: 4, MaxDelay: 20 * time.Microsecond, Workers: 2, QueueDepth: 8})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < 25; i++ {
					_, err := b.Score(r.Intn(nm.Rows()))
					if err != nil && !errors.Is(err, ErrBatcherClosed) && !errors.Is(err, ErrOverloaded) {
						t.Errorf("storm error: %v", err)
						return
					}
				}
			}(int64(round*100 + g))
		}
		b.Close() // races the storm by design
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a Score call hung across Close")
		}
		if st := b.Stats(); st.Scored != st.Accepted {
			t.Fatalf("round %d: %d admitted but only %d answered", round, st.Accepted, st.Scored)
		}
	}
}
