package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/chunk"
)

// ioStats is the chunk store's read accounting.
type ioStats = chunk.IOStats

// setup_s is the median of many builds of the program's set-up, taken
// at several times of a run: on a shared machine one build's time follows
// the machine's load, which changes over seconds, so builds spread over
// the run give a steadier median than the same number in one burst. A
// run spends setupBudget building: a third before the timed part (at
// least setupMinRounds builds, the last of which is measured), a third
// between the training job sets, paced with the run, and the rest after
// the measured set-up is torn down. A traced pass builds only
// setupMinRounds times, all before its timed part, so that no set-up
// spans land among the timed spans.
const (
	setupMinRounds = 9
	setupBudget    = 3 * time.Second
)

// setupSampler builds a workload's set-up and times the builds.
type setupSampler[T any] struct {
	build    func() (T, error)
	teardown func(T) error
	budget   time.Duration
	// window is the timed part's length, which extra paces itself by.
	window time.Duration
	spent  time.Duration
	times  []float64
	// start is when the timed part began.
	start time.Time
}

func newSetupSampler[T any](cfg config, tr *tracer, build func() (T, error), teardown func(T) error) *setupSampler[T] {
	budget := setupBudget
	switch {
	case tr != nil:
		budget = 0
	case cfg.tiny:
		budget /= 40
	}
	return &setupSampler[T]{build: build, teardown: teardown, budget: budget, window: cfg.seconds}
}

// round builds once, after a forced collection, as in a fresh process, so
// no build is charged for the garbage of the one before.
func (s *setupSampler[T]) round() (T, error) {
	runtime.GC()
	t0 := time.Now()
	st, err := s.build()
	if err != nil {
		return st, fmt.Errorf("set-up: %w", err)
	}
	d := time.Since(t0)
	s.spent += d
	s.times = append(s.times, d.Seconds())
	return st, nil
}

// throwaway builds once and tears the build down.
func (s *setupSampler[T]) throwaway() error {
	st, err := s.round()
	if err == nil {
		err = s.teardown(st)
	}
	return err
}

// first builds the set-up the timed part runs on, after the builds of the
// first third of the budget, and starts the timed part's clock.
func (s *setupSampler[T]) first() (T, error) {
	for {
		st, err := s.round()
		if err != nil {
			return st, err
		}
		if len(s.times) >= setupMinRounds && s.spent >= s.budget/3 {
			s.start = time.Now()
			return st, nil
		}
		if err := s.teardown(st); err != nil {
			return st, fmt.Errorf("set-up teardown: %w", err)
		}
	}
}

// extra builds and tears down one more set-up beside the measured one
// when the run's second third of the budget is behind the timed part's
// progress, and then collects its garbage so the next job set is not
// charged for it. The training workloads call it between job sets.
func (s *setupSampler[T]) extra() error {
	progress := min(float64(time.Since(s.start))/float64(s.window), 1)
	if s.spent >= s.budget/3+time.Duration(progress*float64(s.budget/3)) {
		return nil
	}
	if err := s.throwaway(); err != nil {
		return err
	}
	runtime.GC()
	return nil
}

// finish spends the rest of the budget once the measured set-up is torn
// down and returns the median build time.
func (s *setupSampler[T]) finish() (setupTiming, error) {
	for s.spent < s.budget {
		if err := s.throwaway(); err != nil {
			return setupTiming{}, err
		}
	}
	return setupTiming{median(append([]float64(nil), s.times...)), len(s.times)}, nil
}

// finishSetup spends the rest of the set-up budget and records setup_s;
// what names the parts of the set-up.
func finishSetup[T any](out *outcome, s *setupSampler[T], what string) error {
	t, err := s.finish()
	if err != nil {
		return err
	}
	out.e2e[mSetup] = t.seconds
	out.name("setup_s", t.seconds, "s", fmt.Sprintf("%v (%s)", t, what))
	return nil
}

// setupTiming is the median build time in seconds and how many builds it
// is the median of.
type setupTiming struct {
	seconds float64
	rounds  int
}

func (t setupTiming) String() string {
	return fmt.Sprintf("median of %d set-ups", t.rounds)
}

// residentMB forces a collection and returns the live heap in MB.
func residentMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runtimeWindow brackets the timed part for the runtime.* layer metrics.
type runtimeWindow struct {
	ms         runtime.MemStats
	goroutines int
}

// startRuntime snapshots the runtime counters at the start of the timed
// part; base is the goroutine count before set-up.
func startRuntime(base int) runtimeWindow {
	w := runtimeWindow{goroutines: base}
	runtime.ReadMemStats(&w.ms)
	return w
}

// finish records the runtime.* metrics for the window ending now.
func (w runtimeWindow) finish(out *outcome) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.layer["runtime.alloc_mb"] = float64(ms.TotalAlloc-w.ms.TotalAlloc) / 1e6
	out.layer["runtime.gc_cycles"] = float64(ms.NumGC - w.ms.NumGC)
	out.layer["runtime.gc_pause_ms"] = float64(ms.PauseTotalNs-w.ms.PauseTotalNs) / 1e6
	out.layer["runtime.goroutines_delta"] = float64(runtime.NumGoroutine() - w.goroutines)
}

// timedLoop runs job until the measuring time is spent and at least
// minRuns runs are done, returning how many ran. A job error stops the
// loop.
func timedLoop(seconds time.Duration, minRuns int, job func(i int) error) (int, error) {
	deadline := time.Now().Add(seconds)
	i := 0
	for ; i < minRuns || time.Now().Before(deadline); i++ {
		if err := job(i); err != nil {
			return i, err
		}
	}
	return i, nil
}
