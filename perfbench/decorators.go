package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/serve"
)

// scope is the span that calls made through a decorator currently run
// under: the driver call the workload is inside. Drivers run one at a
// time, so a single slot suffices.
type scope struct{ parent, trace atomic.Uint64 }

func (s *scope) set(parent, trace uint64) {
	s.parent.Store(parent)
	s.trace.Store(trace)
}

func (s *scope) get() (parent, trace uint64) { return s.parent.Load(), s.trace.Load() }

// driver runs one driver call as a span of the given job trace, with the
// scope set so the calls the driver makes through decorators become its
// children. With a nil tracer it only runs f.
func (s *scope) driver(tr *tracer, name string, trace uint64, f func() error) error {
	id, end := tr.begin(name, 0, trace)
	s.set(id, trace)
	err := f()
	s.set(0, 0)
	end(0)
	return err
}

// opMeter is shared by an operand and everything derived from it (its
// transpose, scaled and element-wise copies). Computed bytes and FLOPs are
// a model, not a measurement: every call is charged one pass over the
// stored base tables plus its dense input and output, and 2·nnz·k FLOPs
// for a product with k right-hand columns.
type opMeter struct {
	tr     *tracer
	sc     *scope
	prefix string
	bytes  int64 // stored bytes of the operand's base tables
	nnz    int64 // stored nonzeros of the operand's base tables
	flops  atomic.Int64
}

// storedSize returns the stored bytes and nonzeros of an operand: the base
// tables and indicators of a normalized matrix, or the matrix itself.
func storedSize(m la.Matrix) (bytes, nnz int64) {
	if nm, ok := m.(*core.NormalizedMatrix); ok {
		b, z := matSize(nm.S())
		for _, r := range nm.Rs() {
			rb, rz := matSize(r)
			b, z = b+rb, z+rz
		}
		b += int64(4 * nm.Rows() * len(nm.Ks()))
		return b, z
	}
	lm, _ := m.(la.Mat) // *la.Dense and *la.CSR, the planner's other choices
	return matSize(lm)
}

func matSize(m la.Mat) (bytes, nnz int64) {
	if m == nil {
		return 0, 0
	}
	if _, ok := m.(*la.CSR); ok {
		z := int64(m.NNZ())
		return 12*z + 8*int64(m.Rows()+1), z
	}
	return int64(8 * m.Rows() * m.Cols()), int64(m.NNZ())
}

// tracedMatrix is an la.Matrix decorator: it times every operator call
// into the wrapped operand as a child span of the current driver call and
// wraps every operand the calls return, so an ml driver run on it takes
// exactly the path it takes on the bare operand.
type tracedMatrix struct {
	m     la.Matrix
	meter *opMeter
}

func newTracedMatrix(m la.Matrix, tr *tracer, sc *scope, prefix string) *tracedMatrix {
	b, z := storedSize(m)
	return &tracedMatrix{m: m, meter: &opMeter{tr: tr, sc: sc, prefix: prefix, bytes: b, nnz: z}}
}

func (t *tracedMatrix) wrap(m la.Matrix) la.Matrix { return &tracedMatrix{m: m, meter: t.meter} }

// call opens a span for one operator call of the given kind; the returned
// function closes it, charging the computed bytes and FLOPs.
func (t *tracedMatrix) call(kind string) func(ioBytes, flops int64) {
	mt := t.meter
	name := mt.prefix + "." + kind
	if mt.prefix == "la" && kind != "mul" && kind != "leftmul" {
		name = "la.other"
	}
	parent, trace := mt.sc.get()
	_, end := mt.tr.begin(name, parent, trace)
	return func(ioBytes, flops int64) {
		mt.flops.Add(flops)
		end(mt.bytes + ioBytes)
	}
}

func denseBytes(d *la.Dense) int64 { return int64(8 * d.Rows() * d.Cols()) }

func (t *tracedMatrix) Rows() int        { return t.m.Rows() }
func (t *tracedMatrix) Cols() int        { return t.m.Cols() }
func (t *tracedMatrix) T() la.Matrix     { return t.wrap(t.m.T()) }
func (t *tracedMatrix) Dense() *la.Dense { return t.other(t.m.Dense) }
func (t *tracedMatrix) Ginv() *la.Dense  { return t.other(t.m.Ginv) }

func (t *tracedMatrix) other(f func() *la.Dense) *la.Dense {
	end := t.call("other")
	out := f()
	end(denseBytes(out), 0)
	return out
}

func (t *tracedMatrix) elementwise(f func() la.Matrix) la.Matrix {
	end := t.call("elementwise")
	out := f()
	end(0, t.meter.nnz)
	return t.wrap(out)
}

func (t *tracedMatrix) Scale(x float64) la.Matrix {
	return t.elementwise(func() la.Matrix { return t.m.Scale(x) })
}

func (t *tracedMatrix) AddScalar(x float64) la.Matrix {
	return t.elementwise(func() la.Matrix { return t.m.AddScalar(x) })
}

func (t *tracedMatrix) Pow(p float64) la.Matrix {
	return t.elementwise(func() la.Matrix { return t.m.Pow(p) })
}

func (t *tracedMatrix) Apply(f func(float64) float64) la.Matrix {
	return t.elementwise(func() la.Matrix { return t.m.Apply(f) })
}

func (t *tracedMatrix) agg(f func() *la.Dense) *la.Dense {
	end := t.call("agg")
	out := f()
	end(denseBytes(out), t.meter.nnz)
	return out
}

func (t *tracedMatrix) RowSums() *la.Dense { return t.agg(t.m.RowSums) }
func (t *tracedMatrix) ColSums() *la.Dense { return t.agg(t.m.ColSums) }

func (t *tracedMatrix) Sum() float64 {
	end := t.call("agg")
	out := t.m.Sum()
	end(8, t.meter.nnz)
	return out
}

func (t *tracedMatrix) Mul(x *la.Dense) *la.Dense {
	end := t.call("mul")
	out := t.m.Mul(x)
	end(denseBytes(x)+denseBytes(out), 2*t.meter.nnz*int64(x.Cols()))
	return out
}

func (t *tracedMatrix) LeftMul(x *la.Dense) *la.Dense {
	end := t.call("leftmul")
	out := t.m.LeftMul(x)
	end(denseBytes(x)+denseBytes(out), 2*t.meter.nnz*int64(x.Rows()))
	return out
}

func (t *tracedMatrix) CrossProd() *la.Dense {
	end := t.call("crossprod")
	out := t.m.CrossProd()
	end(denseBytes(out), 2*t.meter.nnz*int64(t.m.Cols()))
	return out
}

// tracedBackend times the reads and writes of a local shard backend. It
// wraps only the plain directory backend, which offers the store no
// optional capability a wrapper could hide.
type tracedBackend struct {
	chunk.Backend
	tr *tracer
	sc *scope
}

func (b *tracedBackend) WriteChunk(key string, data []byte) error {
	parent, trace := b.sc.get()
	_, end := b.tr.begin("backend.local.write", parent, trace)
	err := b.Backend.WriteChunk(key, data)
	end(int64(len(data)))
	return err
}

func (b *tracedBackend) ReadChunk(key string) ([]byte, error) {
	parent, trace := b.sc.get()
	_, end := b.tr.begin("backend.local.read", parent, trace)
	data, err := b.Backend.ReadChunk(key)
	end(int64(len(data)))
	return data, err
}

// chunkdMeter is HTTP middleware around a chunk server: it times chunk
// GETs, PUTs and /exec calls on the server side, counts their payload
// bytes, and counts the chunks each /exec request names. The client-side
// RemoteBackend stays unwrapped, so the store's capability probes see it
// as it is.
type chunkdMeter struct {
	h  http.Handler
	tr *tracer
	sc *scope

	mu         sync.Mutex
	execChunks map[uint64]int64 // exec span ID → chunks named
}

func newChunkdMeter(h http.Handler, tr *tracer, sc *scope) *chunkdMeter {
	return &chunkdMeter{h: h, tr: tr, sc: sc, execChunks: map[uint64]int64{}}
}

func chunkdKind(r *http.Request) string {
	switch {
	case r.URL.Path == "/exec" && r.Method == http.MethodPost:
		return "exec"
	case strings.HasPrefix(r.URL.Path, "/chunks/") && r.Method == http.MethodGet:
		return "get"
	case strings.HasPrefix(r.URL.Path, "/chunks/") && r.Method == http.MethodPut:
		return "put"
	}
	return ""
}

func (m *chunkdMeter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	kind := chunkdKind(r)
	if kind == "" {
		m.h.ServeHTTP(w, r)
		return
	}
	var chunks int64
	if kind == "exec" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req struct {
			Chunks []json.RawMessage `json:"chunks"`
		}
		if json.Unmarshal(body, &req) == nil {
			chunks = int64(len(req.Chunks))
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	parent, trace := m.sc.get()
	id, end := m.tr.begin("chunkd."+kind, parent, trace)
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	m.h.ServeHTTP(cw, r)
	n := cw.n
	if kind == "put" {
		n = r.ContentLength
	}
	end(n)
	if kind == "exec" && cw.status == http.StatusOK {
		m.mu.Lock()
		m.execChunks[id] = chunks
		m.mu.Unlock()
	}
}

// execChunksUnder sums the chunks named by the /exec calls among spans.
func (m *chunkdMeter) execChunksUnder(spans []span) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, s := range spans {
		n += m.execChunks[s.ID]
	}
	return n
}

// countingWriter counts response bytes and keeps the Flusher the /exec
// stream relies on.
type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (c *countingWriter) WriteHeader(status int) {
	c.status = status
	c.ResponseWriter.WriteHeader(status)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// requestRegistry links single-row requests to the batches that serve
// them. The generator registers each request before calling Score; the
// router decorator claims the oldest pending request per row id when a
// batch starts, which closes the request's queue-wait span, and publishes
// the batch span for the replica decorators to parent their gathers to.
type requestRegistry struct {
	tr      *tracer
	mu      sync.Mutex
	pending map[int][]pendingReq
	inBatch map[int]uint64
}

type pendingReq struct {
	trace uint64
	sent  int64
}

func newRequestRegistry(tr *tracer) *requestRegistry {
	return &requestRegistry{tr: tr, pending: map[int][]pendingReq{}, inBatch: map[int]uint64{}}
}

// admit registers a request for row about to be sent.
func (r *requestRegistry) admit(row int, trace uint64, sent int64) {
	r.mu.Lock()
	r.pending[row] = append(r.pending[row], pendingReq{trace, sent})
	r.mu.Unlock()
}

// drop removes a request that was refused before reaching a batch.
func (r *requestRegistry) drop(row int, trace uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ps := r.pending[row]
	for i, p := range ps {
		if p.trace == trace {
			r.pending[row] = append(ps[:i:i], ps[i+1:]...)
			break
		}
	}
	if len(r.pending[row]) == 0 {
		delete(r.pending, row)
	}
}

// batchStart records the queue wait of every request the batch serves.
func (r *requestRegistry) batchStart(ids []int, batch uint64, start int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, row := range ids {
		r.inBatch[row] = batch
		ps := r.pending[row]
		if len(ps) == 0 {
			continue
		}
		p := ps[0]
		if len(ps) == 1 {
			delete(r.pending, row)
		} else {
			r.pending[row] = ps[1:]
		}
		r.tr.record(span{ID: r.tr.newID(), Parent: p.trace, Trace: p.trace, Name: "serve.batcher.queue", Start: p.sent, End: start})
	}
}

func (r *requestRegistry) batchEnd(ids []int, batch uint64) {
	r.mu.Lock()
	for _, row := range ids {
		if r.inBatch[row] == batch {
			delete(r.inBatch, row)
		}
	}
	r.mu.Unlock()
}

func (r *requestRegistry) batchOf(row int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inBatch[row]
}

// tracedRouter is the Router handed to NewBatcher when tracing. It keeps
// the allocation-free ScoreBatchInto capability the Batcher probes for.
type tracedRouter struct {
	rt  *serve.Router
	reg *requestRegistry
}

func (t *tracedRouter) Rows() int { return t.rt.Rows() }

func (t *tracedRouter) ScoreBatch(ids []int) ([]float64, error) {
	out := make([]float64, len(ids))
	if err := t.ScoreBatchInto(ids, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (t *tracedRouter) ScoreBatchInto(ids []int, out []float64) error {
	tr := t.reg.tr
	id := tr.newID()
	start := tr.now()
	t.reg.batchStart(ids, id, start)
	err := t.rt.ScoreBatchInto(ids, out)
	tr.record(span{ID: id, Name: "serve.router.score", Start: start, End: tr.now(), Size: int64(len(ids))})
	t.reg.batchEnd(ids, id)
	return err
}

// tracedReplica is a fleet member decorator handed to NewRouter; its
// gather spans are children of the routed batch that asked for them.
type tracedReplica struct {
	serve.Replica
	reg *requestRegistry
}

func (t *tracedReplica) ScoreBatchInto(ids []int, out []float64) error {
	var parent uint64
	if len(ids) > 0 {
		parent = t.reg.batchOf(ids[0])
	}
	_, end := t.reg.tr.begin("serve.replica.gather", parent, parent)
	err := t.Replica.ScoreBatchInto(ids, out)
	end(int64(len(ids)))
	return err
}

func (t *tracedReplica) ScoreBatch(ids []int) ([]float64, error) {
	out := make([]float64, len(ids))
	if err := t.ScoreBatchInto(ids, out); err != nil {
		return nil, err
	}
	return out, nil
}
