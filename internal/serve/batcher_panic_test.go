package serve

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// panicScorer panics on the first panics calls to ScoreBatchInto, then
// behaves normally.
type panicScorer struct {
	rows   int
	mu     sync.Mutex
	panics int
	calls  int
}

func (p *panicScorer) Rows() int { return p.rows }

func (p *panicScorer) ScoreBatchInto(ids []int, out []float64) error {
	p.mu.Lock()
	p.calls++
	boom := p.panics > 0
	if boom {
		p.panics--
	}
	p.mu.Unlock()
	if boom {
		panic("scorer exploded")
	}
	for i, id := range ids {
		out[i] = float64(id)
	}
	return nil
}

// TestBatcherRecoversFromScorerPanic: every caller coalesced into the
// panicking batch receives an error (instead of blocking forever or the
// process dying), and the batcher keeps serving afterwards with its full
// worker pool.
func TestBatcherRecoversFromScorerPanic(t *testing.T) {
	const workers = 2
	sc := &panicScorer{rows: 64, panics: workers + 1}
	b := NewBatcher(sc, BatchOptions{Workers: workers, MaxDelay: time.Millisecond})
	defer b.Close()

	// Drive enough concurrent traffic that every worker slot sees at
	// least one panicking batch.
	const callers = 16
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, err := b.Score(id % sc.rows)
			errs <- err
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Score callers blocked after scorer panic — batch never answered")
	}
	close(errs)
	sawPanicErr := false
	for err := range errs {
		if err != nil {
			if !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("unexpected error: %v", err)
			}
			sawPanicErr = true
		}
	}
	if !sawPanicErr {
		t.Fatal("no caller observed the panic error")
	}

	// Burn off any scheduled panics the coalesced batches didn't consume.
	for i := 0; i < workers+1; i++ {
		b.Score(0)
	}

	// The pool must not have leaked slots: more concurrent batches than
	// Workers still complete.
	for round := 0; round < 3; round++ {
		var wg2 sync.WaitGroup
		for i := 0; i < workers*4; i++ {
			wg2.Add(1)
			go func(id int) {
				defer wg2.Done()
				got, err := b.Score(id)
				if err != nil {
					t.Errorf("post-panic Score: %v", err)
				} else if got != float64(id) {
					t.Errorf("post-panic Score(%d) = %v", id, got)
				}
			}(i % sc.rows)
		}
		done2 := make(chan struct{})
		go func() { wg2.Wait(); close(done2) }()
		select {
		case <-done2:
		case <-time.After(10 * time.Second):
			t.Fatal("batcher wedged after panic recovery — leaked worker slot?")
		}
	}
}
