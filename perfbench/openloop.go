package main

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
)

// errWrong marks a request whose answer failed its check.
var errWrong = errors.New("wrong answer")

// loadStep is one fixed-rate segment of open-loop load.
type loadStep struct {
	rate                    float64
	sent, ok                int
	rejected, failed, wrong int
	// lat is each request's latency in µs from its due time; +Inf for a
	// request that failed, was refused or answered wrongly, so those
	// count as missing any limit.
	lat []float64
	// late is how far behind its due time each send went out, in µs.
	late []float64
	// busyLate counts sends that waited because every issuer was busy.
	busyLate int
	// batchRows is the mean number of rows per gather pass the Batcher
	// formed during the step: about 1 where each read is served alone,
	// higher where coalescing does the work.
	batchRows float64
}

func (s *loadStep) bad() int { return s.rejected + s.failed + s.wrong }

// openLoop drives call with one request per schedule slot: requests are
// due at evenly spaced times for dur, whatever the system's progress, and
// are handed to a bounded pool of issuers. ids[i % len(ids)] is request
// i's row. A request's latency runs from its due time, so a stall also
// charges the requests queued behind it. The dispatcher sleeps while the
// next due time is far and yields in a loop when it is near, because
// timer sleeps on Linux overshoot by about a millisecond.
func openLoop(rate float64, dur time.Duration, ids []int, issuers int, call func(i, row int) error) *loadStep {
	n := max(int(rate*dur.Seconds()), 1)
	interval := time.Duration(float64(time.Second) / rate)
	step := &loadStep{rate: rate, sent: n, lat: make([]float64, n), late: make([]float64, n)}
	codes := make([]error, n)

	type job struct {
		i   int
		due time.Time
	}
	// Unbuffered: a send succeeds at once only when an issuer is idle.
	jobs := make(chan job)
	var wg sync.WaitGroup
	for g := 0; g < issuers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				err := call(j.i, ids[j.i%len(ids)])
				codes[j.i] = err
				if err != nil {
					step.lat[j.i] = math.Inf(1)
				} else {
					step.lat[j.i] = float64(time.Since(j.due)) / 1e3
				}
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		waitUntil(due)
		select {
		case jobs <- job{i, due}:
		default:
			step.busyLate++
			jobs <- job{i, due}
		}
		step.late[i] = float64(time.Since(due)) / 1e3
	}
	close(jobs)
	wg.Wait()
	for _, err := range codes {
		switch {
		case err == nil:
			step.ok++
		case errors.Is(err, serve.ErrOverloaded):
			step.rejected++
		case errors.Is(err, errWrong):
			step.wrong++
		default:
			step.failed++
		}
	}
	return step
}

// waitUntil returns at t: it sleeps while t is more than two milliseconds
// away and yields the processor in a loop for the rest.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - 1500*time.Microsecond)
			continue
		}
		runtime.Gosched()
	}
}

// backlogGrows reports whether the step's queue grew while it ran: the
// median latency of its last fifth exceeds twice that of its first fifth
// and half the limit.
func (s *loadStep) backlogGrows(limitUS float64) bool {
	k := len(s.lat) / 5
	if k == 0 {
		return false
	}
	first := median(append([]float64(nil), s.lat[:k]...))
	last := median(append([]float64(nil), s.lat[len(s.lat)-k:]...))
	return last > 2*first && last > limitUS/2
}

// meets reports whether the step met the latency limit at the tail
// percentile, kept failures within maxBad of the requests sent, and built
// no backlog — in the generator (busy issuers) or in the system.
func (s *loadStep) meets(limitUS, maxBad float64) bool {
	t := tailOf(append([]float64(nil), s.lat...))
	return t.Value <= limitUS &&
		float64(s.bad()) <= maxBad*float64(s.sent) &&
		float64(s.busyLate) <= maxBad*float64(s.sent) &&
		!s.backlogGrows(limitUS)
}
