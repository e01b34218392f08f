package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// BatchOptions tunes the micro-batching dispatcher.
type BatchOptions struct {
	// MaxBatch is the largest number of requests coalesced into one gather
	// pass (default 256).
	MaxBatch int
	// MaxDelay bounds how long the first request of a batch waits for
	// company (default 100µs).
	MaxDelay time.Duration
	// Workers bounds how many batches execute concurrently
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a batch
	// slot (default Workers × MaxBatch). When the queue is full, Score
	// fails fast with ErrOverloaded instead of blocking — the admission
	// edge of the serving stack.
	QueueDepth int
}

func (o BatchOptions) withDefaults() BatchOptions {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 100 * time.Microsecond
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = o.Workers * o.MaxBatch
	}
	return o
}

// BatchScorer is the backend contract the Batcher coalesces over; Scorer
// and Router implement it, and wrappers (instrumentation, throttling) can
// too.
type BatchScorer interface {
	Rows() int
	// ScoreBatchInto scores ids into the caller-owned out slice
	// (len(out) == len(ids)) without allocating — the steady-state
	// request path.
	ScoreBatchInto(ids []int, out []float64) error
}

// BatcherStats counts the admission and execution work a Batcher has
// performed. Snapshot via Batcher.Stats.
type BatcherStats struct {
	// Accepted is the number of requests admitted into the queue.
	Accepted uint64
	// Rejected is the number of requests refused with ErrOverloaded
	// because the queue was full.
	Rejected uint64
	// Batches is the number of coalesced gather passes executed.
	Batches uint64
	// Scored is the number of admitted requests answered (equals Accepted
	// once the batcher is idle or closed).
	Scored uint64
	// PeakQueue is the deepest the admission queue has been.
	PeakQueue int
}

// Batcher coalesces concurrent single-row scoring calls into shared batch
// gather passes behind a bounded admission queue. Callers block in Score
// until their batch executes; a dispatcher goroutine groups arrivals (up
// to MaxBatch, waiting at most MaxDelay) and feeds a fixed pool of Workers
// batch executors, so heavy concurrent traffic amortizes into a few wide
// gather passes instead of many single-row lock acquisitions.
//
// Overload semantics: at most QueueDepth requests wait for execution; a
// request arriving at a full queue fails fast with ErrOverloaded instead
// of queuing unboundedly, so latency under saturation stays bounded and
// the caller — not the queue — decides whether to retry. After Close,
// Score fails fast with ErrBatcherClosed; requests admitted before Close
// are always answered. The steady-state request path is allocation-free:
// response channels, batch buffers, and score buffers are pooled.
type Batcher struct {
	sc  BatchScorer
	opt BatchOptions

	reqs chan batchReq // buffered by QueueDepth: the admission queue
	jobs chan *batchJob
	quit chan struct{}

	// admit orders Score's closed-check + enqueue against Close: Score
	// holds it shared around the try-send, Close sets closed exclusively
	// first, so once Close holds the lock every admitted request is
	// already in the queue and the final drain answers all of them.
	admit  sync.RWMutex
	closed bool

	resps sync.Pool // chan batchResp (cap 1), reused across Score calls
	batch sync.Pool // *batchJob, reused across gather passes

	wg   sync.WaitGroup
	once sync.Once

	accepted, rejected, batches, scored atomic.Uint64
	peakQueue                           atomic.Int64
}

type batchReq struct {
	id  int
	out chan batchResp
}

type batchResp struct {
	score float64
	err   error
}

// batchJob is one coalesced gather pass in flight between the dispatcher
// and a worker; pooling it (with its id and score buffers) keeps the
// steady-state path off the allocator.
type batchJob struct {
	reqs []batchReq
	ids  []int
	out  []float64
}

// NewBatcher starts a micro-batching frontend over sc.
func NewBatcher(sc BatchScorer, opt BatchOptions) *Batcher {
	opt = opt.withDefaults()
	b := &Batcher{
		sc:   sc,
		opt:  opt,
		reqs: make(chan batchReq, opt.QueueDepth),
		jobs: make(chan *batchJob),
		quit: make(chan struct{}),
	}
	b.resps.New = func() any { return make(chan batchResp, 1) }
	b.batch.New = func() any {
		return &batchJob{
			reqs: make([]batchReq, 0, opt.MaxBatch),
			ids:  make([]int, 0, opt.MaxBatch),
			out:  make([]float64, 0, opt.MaxBatch),
		}
	}
	b.wg.Add(1 + opt.Workers)
	go b.dispatch()
	for i := 0; i < opt.Workers; i++ {
		go b.worker()
	}
	return b
}

// Score serves one prediction, transparently sharing a gather pass with
// concurrent callers. It blocks until the result is ready — bounded by
// the queue depth: when the admission queue is full it fails immediately
// with ErrOverloaded, and after Close it fails immediately with
// ErrBatcherClosed.
func (b *Batcher) Score(id int) (float64, error) {
	if id < 0 || id >= b.sc.Rows() {
		return 0, ErrRowRange
	}
	out := b.resps.Get().(chan batchResp)

	b.admit.RLock()
	if b.closed {
		b.admit.RUnlock()
		b.resps.Put(out)
		return 0, ErrBatcherClosed
	}
	select {
	case b.reqs <- batchReq{id: id, out: out}:
	default:
		b.admit.RUnlock()
		b.rejected.Add(1)
		b.resps.Put(out)
		return 0, ErrOverloaded
	}
	b.accepted.Add(1)
	if d := int64(len(b.reqs)); d > b.peakQueue.Load() {
		for {
			cur := b.peakQueue.Load()
			if d <= cur || b.peakQueue.CompareAndSwap(cur, d) {
				break
			}
		}
	}
	b.admit.RUnlock()

	r := <-out
	b.resps.Put(out)
	return r.score, r.err
}

// Close stops admitting, answers every already-admitted request, waits
// for in-flight batches to finish, and releases the worker pool. Later
// Score calls return ErrBatcherClosed. Close is idempotent.
func (b *Batcher) Close() {
	b.once.Do(func() {
		b.admit.Lock()
		b.closed = true
		b.admit.Unlock()
		close(b.quit)
	})
	b.wg.Wait()
}

// Stats returns a snapshot of the admission and execution counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Accepted:  b.accepted.Load(),
		Rejected:  b.rejected.Load(),
		Batches:   b.batches.Load(),
		Scored:    b.scored.Load(),
		PeakQueue: int(b.peakQueue.Load()),
	}
}

// QueueDepth reports the configured admission-queue bound.
func (b *Batcher) QueueDepth() int { return b.opt.QueueDepth }

// dispatch is the single goroutine that turns the admission queue into
// coalesced jobs. On shutdown it drains every request admitted before
// Close (the admission lock guarantees they are all in the queue by
// then), so no accepted caller is left waiting.
func (b *Batcher) dispatch() {
	defer b.wg.Done()
	defer close(b.jobs)
	for {
		select {
		case <-b.quit:
			b.finalDrain()
			return
		case first := <-b.reqs:
			b.jobs <- b.collect(first)
		}
	}
}

// finalDrain answers the requests still queued at Close time.
func (b *Batcher) finalDrain() {
	for {
		select {
		case first := <-b.reqs:
			b.jobs <- b.collect(first)
		default:
			return
		}
	}
}

// collect grows a job from the first request. Requests already waiting in
// the admission queue are drained greedily — under load, coalescing
// emerges from queue pressure with no added latency. Only a lone request
// waits (up to MaxDelay) for company before going out solo.
func (b *Batcher) collect(first batchReq) *batchJob {
	job := b.batch.Get().(*batchJob)
	job.reqs = append(job.reqs[:0], first)
	b.drain(job)
	if len(job.reqs) > 1 || len(job.reqs) == b.opt.MaxBatch {
		return job
	}
	timer := time.NewTimer(b.opt.MaxDelay)
	defer timer.Stop()
	select {
	case r := <-b.reqs:
		job.reqs = append(job.reqs, r)
		b.drain(job)
	case <-timer.C:
	case <-b.quit:
	}
	return job
}

// drain performs non-blocking receives until the queue is momentarily
// empty or the job is full.
func (b *Batcher) drain(job *batchJob) {
	for len(job.reqs) < b.opt.MaxBatch {
		select {
		case r := <-b.reqs:
			job.reqs = append(job.reqs, r)
		default:
			return
		}
	}
}

// worker executes coalesced jobs until the dispatcher closes the job
// stream at shutdown.
func (b *Batcher) worker() {
	defer b.wg.Done()
	for job := range b.jobs {
		b.runJob(job)
	}
}

// runJob executes one gather pass and answers every caller in the job.
// Each admitted request gets exactly one response — on success, backend
// error, or backend panic — which is what lets Score reuse pooled
// response channels safely.
func (b *Batcher) runJob(job *batchJob) {
	n := len(job.reqs)
	job.ids = job.ids[:0]
	for _, r := range job.reqs {
		job.ids = append(job.ids, r.id)
	}
	if cap(job.out) < n {
		job.out = make([]float64, n)
	}
	job.out = job.out[:n]
	err := b.scoreBatch(job)
	for i, r := range job.reqs {
		if err != nil {
			r.out <- batchResp{err: err}
		} else {
			r.out <- batchResp{score: job.out[i]}
		}
	}
	b.batches.Add(1)
	b.scored.Add(uint64(n))
	job.reqs = job.reqs[:0]
	b.batch.Put(job)
}

// scoreBatch scores the job into its pooled score buffer, converting a
// backend panic into an error: without the recover, a panicking backend
// would escape the worker goroutine, skipping the response sends so every
// coalesced caller in the batch blocks forever while the panic takes down
// the process. With it, all callers get the error and the batcher keeps
// serving.
func (b *Batcher) scoreBatch(job *batchJob) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: ScoreBatchInto panicked: %v", r)
		}
	}()
	return b.sc.ScoreBatchInto(job.ids, job.out)
}
