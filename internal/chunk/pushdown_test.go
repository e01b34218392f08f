package chunk

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/la"
)

// execCountingServer wraps a ChunkServer and counts /exec requests, so
// tests can assert pushdown actually engaged (and not silently fall back
// everywhere while the differential still passes).
type execCountingServer struct {
	inner *ChunkServer
	execs atomic.Int64
}

func (s *execCountingServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/exec" {
		s.execs.Add(1)
	}
	s.inner.ServeHTTP(w, r)
}

// pushdownStore builds a store mixing one local shard with nWorkers
// exec-capable chunkd workers (RoundRobin, so every shard holds chunks)
// and returns the per-worker exec counters.
func pushdownStore(t testing.TB, nWorkers int) (*Store, []*execCountingServer) {
	t.Helper()
	local, err := NewDirBackend(filepath.Join(t.TempDir(), "local"))
	if err != nil {
		t.Fatal(err)
	}
	backends := []Backend{local}
	counters := make([]*execCountingServer, 0, nWorkers)
	for i := 0; i < nWorkers; i++ {
		inner, err := NewChunkServer(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cs := &execCountingServer{inner: inner}
		srv := httptest.NewServer(cs)
		t.Cleanup(srv.Close)
		rb, err := NewRemoteBackend(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, rb)
		counters = append(counters, cs)
	}
	s, err := NewShardedStoreBackends(backends, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	return s, counters
}

func totalExecs(counters []*execCountingServer) int64 {
	var n int64
	for _, c := range counters {
		n += c.execs.Load()
	}
	return n
}

// TestPushdownDifferential pins the acceptance criterion: every pushed-down
// op — CrossProd, ColSums, Sum over dense and CSR chunks, and the k-means
// distance+argmin pass — is bitwise identical to the all-local parallel
// run over the same mixed local+remote store, and the /exec endpoint
// really was used.
func TestPushdownDifferential(t *testing.T) {
	s, counters := pushdownStore(t, 2)
	defer s.Close()

	rng := rand.New(rand.NewSource(42))
	dd := randDense(rng, 103, 7) // ragged last chunk
	dM, err := FromDense(s, dd, 8)
	if err != nil {
		t.Fatal(err)
	}
	sM, err := FromCSR(s, oneHotCSR(rng, 103, 3, 4), 8)
	if err != nil {
		t.Fatal(err)
	}

	exLocal := Exec{Workers: 4, Prefetch: 3}
	for _, ex := range []Exec{
		{Workers: 4, Prefetch: 3, Pushdown: true},
		{Workers: 1, Prefetch: 0, Pushdown: true}, // serial driver, remote workers
	} {
		for _, m := range []*Matrix{dM, sM} {
			xpL, err := m.CrossProdExec(exLocal)
			if err != nil {
				t.Fatal(err)
			}
			xpP, err := m.CrossProdExec(ex)
			if err != nil {
				t.Fatal(err)
			}
			if la.MaxAbsDiff(xpL, xpP) != 0 {
				t.Fatalf("%T crossprod under %+v diverged from all-local", m, ex)
			}
			csL, err := m.ColSumsExec(exLocal)
			if err != nil {
				t.Fatal(err)
			}
			csP, err := m.ColSumsExec(ex)
			if err != nil {
				t.Fatal(err)
			}
			if la.MaxAbsDiff(csL, csP) != 0 {
				t.Fatalf("%T colsums under %+v diverged from all-local", m, ex)
			}
			sumL, err := m.SumExec(exLocal)
			if err != nil {
				t.Fatal(err)
			}
			sumP, err := m.SumExec(ex)
			if err != nil {
				t.Fatal(err)
			}
			if sumL != sumP {
				t.Fatalf("%T sum under %+v = %v, all-local %v", m, ex, sumP, sumL)
			}
		}

		kmL, err := KMeansExec(exLocal, dM, 4, 3, 9)
		if err != nil {
			t.Fatal(err)
		}
		kmP, err := KMeansExec(ex, dM, 4, 3, 9)
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(kmL.Centroids, kmP.Centroids) != 0 || kmL.Objective != kmP.Objective {
			t.Fatalf("k-means under %+v diverged from all-local", ex)
		}
		if kmL.BytesRead != kmP.BytesRead {
			t.Fatalf("k-means BytesRead under %+v = %d, all-local %d", ex, kmP.BytesRead, kmL.BytesRead)
		}
		aL, err := kmL.Assign.Dense()
		if err != nil {
			t.Fatal(err)
		}
		aP, err := kmP.Assign.Dense()
		if err != nil {
			t.Fatal(err)
		}
		if la.MaxAbsDiff(aL, aP) != 0 {
			t.Fatalf("k-means assignments under %+v diverged from all-local", ex)
		}
		if err := kmL.Assign.Free(); err != nil {
			t.Fatal(err)
		}
		if err := kmP.Assign.Free(); err != nil {
			t.Fatal(err)
		}
	}

	if n := totalExecs(counters); n == 0 {
		t.Fatal("pushdown never reached a worker's /exec endpoint")
	}
	for i, c := range counters {
		if c.execs.Load() == 0 {
			t.Fatalf("worker %d never received an /exec request", i)
		}
	}

	if err := dM.Free(); err != nil {
		t.Fatal(err)
	}
	if err := sM.Free(); err != nil {
		t.Fatal(err)
	}
	if s.LiveChunks() != 0 || s.BytesOnDisk() != 0 {
		t.Fatalf("after Free: %d chunks, %d bytes still accounted", s.LiveChunks(), s.BytesOnDisk())
	}
}

// noExecServer is a pre-/exec chunk server: the disk protocol works, but
// /exec answers 404 like any unknown path did before the endpoint existed.
type noExecServer struct {
	inner *ChunkServer
	execs atomic.Int64
}

func (s *noExecServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/exec" {
		s.execs.Add(1)
		http.NotFound(w, r)
		return
	}
	s.inner.ServeHTTP(w, r)
}

// TestPushdownFallsBackOnOldServer: against a shard without /exec, a
// pushdown pass silently degrades to the passive read path — same results,
// no error — and the client remembers the answer so later passes skip the
// probe.
func TestPushdownFallsBackOnOldServer(t *testing.T) {
	inner, err := NewChunkServer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	old := &noExecServer{inner: inner}
	srv := httptest.NewServer(old)
	defer srv.Close()
	rb, err := NewRemoteBackend(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedStoreBackends([]Backend{rb}, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(3))
	dM, err := FromDense(s, randDense(rng, 61, 5), 8)
	if err != nil {
		t.Fatal(err)
	}
	exPush := Exec{Workers: 2, Prefetch: 2, Pushdown: true}
	want, err := dM.CrossProdExec(Exec{Workers: 2, Prefetch: 2})
	if err != nil {
		t.Fatal(err)
	}
	logged := captureFallbackLogs(t)
	got, err := dM.CrossProdExec(exPush)
	if err != nil {
		t.Fatalf("pushdown against a pre-/exec server: %v", err)
	}
	if !sameFloatBits(want, got) {
		t.Fatal("fallback results diverged from the local pass")
	}
	// The degradation is not silent: one counted, logged fallback.
	if n := s.IOStats().PushdownFallbacks; n != 1 {
		t.Fatalf("PushdownFallbacks = %d after one pass against a pre-/exec server, want 1", n)
	}
	if n := logged(); n != 1 {
		t.Fatalf("%d fallback log records, want 1", n)
	}
	if n := old.execs.Load(); n != 1 {
		t.Fatalf("probed /exec %d times, want exactly 1", n)
	}
	// The unsupported answer is cached: another pass must not re-probe.
	if _, err := dM.ColSumsExec(exPush); err != nil {
		t.Fatal(err)
	}
	if n := old.execs.Load(); n != 1 {
		t.Fatalf("re-probed /exec after a definitive 404 (%d probes)", n)
	}
	if _, err := rb.ExecOp(OpSum(), chunkKindDense, 5, []ExecChunk{{Key: "chunk-000001.bin", Rows: 8}}); !errors.Is(err, ErrExecUnsupported) {
		t.Fatalf("ExecOp on a cached no-exec backend = %v, want ErrExecUnsupported", err)
	}
}

// cutExecServer serves /exec but cuts the connection after passing through
// a fixed number of response bytes — a worker dying mid-partial. The disk
// protocol can be failed independently, to pin what happens when the
// fallback path is dead too.
type cutExecServer struct {
	inner    *ChunkServer
	mu       sync.Mutex
	cutAfter int  // bytes of /exec response to pass through before dying
	failGets bool // when set, GET /chunks/{key} answers 500
}

func (s *cutExecServer) arm(cutAfter int, failGets bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cutAfter = cutAfter
	s.failGets = failGets
}

type cutWriter struct {
	http.ResponseWriter
	remaining int
}

func (w *cutWriter) Write(p []byte) (int, error) {
	if len(p) > w.remaining {
		if w.remaining > 0 {
			w.ResponseWriter.Write(p[:w.remaining])
		}
		if fl, ok := w.ResponseWriter.(http.Flusher); ok {
			fl.Flush()
		}
		panic(http.ErrAbortHandler) // kill the stream without a clean end frame
	}
	w.remaining -= len(p)
	return w.ResponseWriter.Write(p)
}

func (s *cutExecServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	cutAfter, failGets := s.cutAfter, s.failGets
	s.mu.Unlock()
	if failGets && r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/chunks/") {
		http.Error(w, "injected disk outage", http.StatusInternalServerError)
		return
	}
	if r.URL.Path == "/exec" && cutAfter >= 0 {
		s.inner.ServeHTTP(&cutWriter{ResponseWriter: w, remaining: cutAfter}, r)
		return
	}
	s.inner.ServeHTTP(w, r)
}

// captureFallbackLogs routes the default slog logger into a buffer for
// the rest of the test and returns a counter of the pushdown-fallback
// records written so far. Records are written before the fallen-back
// chunks' results reach the committer, so a count taken after a pass
// returns sees all of that pass's records.
func captureFallbackLogs(t *testing.T) func() int {
	t.Helper()
	var buf bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&buf, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
	return func() int {
		n := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, "pushdown fell back") {
				if !strings.Contains(line, "err=") {
					t.Errorf("fallback record without a reason: %s", line)
				}
				n++
			}
		}
		return n
	}
}

// sameFloatBits reports whether a and b agree bit for bit.
func sameFloatBits(a, b *la.Dense) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	bd := b.Data()
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(bd[i]) {
			return false
		}
	}
	return true
}

// TestPushdownMidStreamCutFallsBack: a worker that dies mid-partial does
// not fail the pass or skew the result — the cut is detected (framed
// stream, no end frame) and the affected chunks rerun through the passive
// read path, bit-identically.
func TestPushdownMidStreamCutFallsBack(t *testing.T) {
	inner, err := NewChunkServer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cut := &cutExecServer{inner: inner, cutAfter: -1}
	srv := httptest.NewServer(cut)
	defer srv.Close()
	rb, err := NewRemoteBackend(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewDirBackend(filepath.Join(t.TempDir(), "local"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedStoreBackends([]Backend{local, rb}, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(11))
	dM, err := FromDense(s, randDense(rng, 103, 7), 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dM.CrossProdExec(Exec{Workers: 4, Prefetch: 3})
	if err != nil {
		t.Fatal(err)
	}
	baselineChunks, baselineBytes := s.LiveChunks(), s.BytesOnDisk()

	exPush := Exec{Workers: 4, Prefetch: 3, Pushdown: true}
	logged := captureFallbackLogs(t)
	if _, err := dM.CrossProdExec(exPush); err != nil {
		t.Fatal(err)
	}
	if n, l := s.IOStats().PushdownFallbacks, logged(); n != 0 || l != 0 {
		t.Fatalf("clean pushdown pass counted %d fallbacks and logged %d", n, l)
	}
	// Cut at every interesting offset: before any frame, mid-header,
	// mid-payload, and after a whole first partial (7×7×8 B + blob header
	// + frame header).
	for i, cutAfter := range []int{0, 5, 100, 9 + 16 + 7*7*8} {
		cut.arm(cutAfter, false)
		got, err := dM.CrossProdExec(exPush)
		if err != nil {
			t.Fatalf("cut after %d bytes: pass failed instead of falling back: %v", cutAfter, err)
		}
		if !sameFloatBits(want, got) {
			t.Fatalf("cut after %d bytes: fallback result diverged", cutAfter)
		}
		// One remote shard, one /exec group per pass: each cut pass
		// counts and logs exactly one fallback.
		if n := s.IOStats().PushdownFallbacks; n != i+1 {
			t.Fatalf("cut after %d bytes: PushdownFallbacks = %d, want %d", cutAfter, n, i+1)
		}
		if n := logged(); n != i+1 {
			t.Fatalf("cut after %d bytes: %d fallback log records, want %d", cutAfter, n, i+1)
		}
		if s.LiveChunks() != baselineChunks || s.BytesOnDisk() != baselineBytes {
			t.Fatalf("cut after %d bytes: accounting moved off baseline (%d chunks, %d bytes)",
				cutAfter, s.LiveChunks(), s.BytesOnDisk())
		}
	}

	// Worker dead AND the passive path dead: the pass must error — a
	// partial is never silently dropped — and accounting stays at
	// baseline; Free then unwinds to zero.
	cut.arm(0, true)
	if _, err := dM.CrossProdExec(exPush); err == nil {
		t.Fatal("pass succeeded with the worker cut and reads failing")
	}
	cut.arm(-1, false)
	if s.LiveChunks() != baselineChunks || s.BytesOnDisk() != baselineBytes {
		t.Fatalf("after failed pass: accounting off baseline (%d chunks, %d bytes)", s.LiveChunks(), s.BytesOnDisk())
	}
	if err := dM.Free(); err != nil {
		t.Fatal(err)
	}
	if s.LiveChunks() != 0 || s.BytesOnDisk() != 0 {
		t.Fatalf("after Free: %d chunks, %d bytes still accounted", s.LiveChunks(), s.BytesOnDisk())
	}
}

// TestExecOpRoundTrip drives the client-server /exec pair directly: the
// stream yields one decodable partial per requested chunk, in request
// order, then a clean EOF.
func TestExecOpRoundTrip(t *testing.T) {
	rb, _ := startChunkServer(t)
	rng := rand.New(rand.NewSource(5))
	chunks := make([]ExecChunk, 3)
	want := make([]float64, 3)
	for i := range chunks {
		d := randDense(rng, 4, 3)
		if err := rb.WriteChunk(keyFor(i), encodeDenseChunk(d)); err != nil {
			t.Fatal(err)
		}
		chunks[i] = ExecChunk{Key: keyFor(i), Rows: 4}
		want[i] = d.SumAll()
	}
	ps, err := rb.ExecOp(OpSum(), chunkKindDense, 3, chunks)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	st, err := prepareOp(OpSum())
	if err != nil {
		t.Fatal(err)
	}
	for i := range chunks {
		raw, err := ps.Next()
		if err != nil {
			t.Fatalf("partial %d: %v", i, err)
		}
		v, err := st.decodePartial(raw, 3)
		if err != nil {
			t.Fatalf("partial %d: %v", i, err)
		}
		if v.(float64) != want[i] {
			t.Fatalf("partial %d = %v, want %v", i, v, want[i])
		}
	}
	if _, err := ps.Next(); err != io.EOF {
		t.Fatalf("after end frame: %v, want io.EOF", err)
	}
}

func keyFor(i int) string { return fmt.Sprintf("chunk-%06d.bin", i+1) }

// TestServeExecProtocolErrors pins the /exec status codes the client's
// probe logic depends on: unknown op → 501 (treated as "no pushdown
// here"), malformed requests → 400, wrong method → 405.
func TestServeExecProtocolErrors(t *testing.T) {
	h, err := NewChunkServer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/exec", strings.NewReader(body)))
		return rr
	}
	if rr := post(`{"op":"no-such-op","kind":"dense","cols":3,"chunks":[{"key":"chunk-000001.bin","rows":4}]}`); rr.Code != http.StatusNotImplemented {
		t.Fatalf("unknown op = %d, want 501", rr.Code)
	}
	for name, body := range map[string]string{
		"bad JSON":    `{`,
		"bad key":     `{"op":"sum","kind":"dense","cols":3,"chunks":[{"key":"../etc/passwd","rows":4}]}`,
		"bad kind":    `{"op":"sum","kind":"coo","cols":3,"chunks":[{"key":"chunk-000001.bin","rows":4}]}`,
		"bad cols":    `{"op":"sum","kind":"dense","cols":0,"chunks":[{"key":"chunk-000001.bin","rows":4}]}`,
		"bad rows":    `{"op":"sum","kind":"dense","cols":3,"chunks":[{"key":"chunk-000001.bin","rows":0}]}`,
		"no chunks":   `{"op":"sum","kind":"dense","cols":3,"chunks":[]}`,
		"bad params":  `{"op":"sum","params":"AAAA","kind":"dense","cols":3,"chunks":[{"key":"chunk-000001.bin","rows":4}]}`,
		"kmeans junk": `{"op":"kmeans-assign","params":"AAAA","kind":"dense","cols":3,"chunks":[{"key":"chunk-000001.bin","rows":4}]}`,
	} {
		if rr := post(body); rr.Code != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", name, rr.Code)
		}
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/exec", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /exec = %d, want 405", rr.Code)
	}
	// A missing chunk surfaces in-band: 200, then an error frame.
	rr = post(`{"op":"sum","kind":"dense","cols":3,"chunks":[{"key":"chunk-000001.bin","rows":4}]}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("exec over a missing chunk = %d, want 200 + error frame", rr.Code)
	}
	ps := newPartialStream(io.NopCloser(rr.Body))
	if _, err := ps.Next(); err == nil || err == io.EOF {
		t.Fatalf("missing chunk stream = %v, want an in-band error", err)
	}
}

// TestPutOverrunReturns413 pins the MaxBytesReader path of put: a body
// that overruns the server limit answers 413 like the Content-Length
// check, not a generic 400. (Driving the handler directly, as a real
// server bounds the body read by the declared Content-Length.)
func TestPutOverrunReturns413(t *testing.T) {
	h, err := NewChunkServer(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPut, "/chunks/chunk-000001.bin", strings.NewReader(strings.Repeat("x", 200)))
	req.ContentLength = 32 // declared under the limit; the body overruns it
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("overrunning PUT = %d, want 413", rr.Code)
	}
}

// wrongShapeExecServer is a faulty chunkd worker: /exec streams one
// well-formed partial per requested chunk, but of the wrong shape — a 1×1
// dense blob for the dense reductions and, for kmeans-assign, either 1×1
// sums with one count or (short) right-shape sums with one count too few.
type wrongShapeExecServer struct {
	inner *ChunkServer
	short atomic.Bool
}

func (s *wrongShapeExecServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/exec" {
		s.inner.ServeHTTP(w, r)
		return
	}
	var req execRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	for range req.Chunks {
		raw := appendDenseBlob(nil, la.NewDense(1, 1))
		if req.Op == "kmeans-assign" {
			cent, _, err := readDenseBlob(req.Params)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			k := 1
			if s.short.Load() {
				raw = appendDenseBlob(nil, la.NewDense(cent.Rows(), cent.Cols()))
				k = cent.Cols() - 1
			}
			raw = binary.LittleEndian.AppendUint64(raw, uint64(k))
			for j := 0; j < k; j++ {
				raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(1))
			}
			raw = binary.LittleEndian.AppendUint64(raw, 0)
		}
		if err := writePartialFrame(w, raw); err != nil {
			return
		}
	}
	writeEndFrame(w)
}

// TestPushdownRejectsWrongShapePartials: a worker answering with
// well-formed partials of the wrong shape neither panics the committer nor
// skews the reduction — every such partial is rejected, the shard group
// falls back to the read path (counted in PushdownFallbacks), and the
// result equals the all-local pass bit for bit.
func TestPushdownRejectsWrongShapePartials(t *testing.T) {
	inner, err := NewChunkServer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	faulty := &wrongShapeExecServer{inner: inner}
	srv := httptest.NewServer(faulty)
	defer srv.Close()
	rb, err := NewRemoteBackend(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedStoreBackends([]Backend{rb}, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dM, err := FromDense(s, randDense(rand.New(rand.NewSource(4)), 61, 4), 8)
	if err != nil {
		t.Fatal(err)
	}
	exLocal := Exec{Workers: 2, Prefetch: 2}
	exPush := Exec{Workers: 2, Prefetch: 2, Pushdown: true}
	logged := captureFallbackLogs(t)
	fallbacks := 0
	expectFallbacks := func(what string, passes int) {
		t.Helper()
		fallbacks += passes
		if n := s.IOStats().PushdownFallbacks; n != fallbacks {
			t.Fatalf("%s: PushdownFallbacks = %d, want %d", what, n, fallbacks)
		}
		if n := logged(); n != fallbacks {
			t.Fatalf("%s: %d fallback log records, want %d", what, n, fallbacks)
		}
	}

	for _, op := range []struct {
		name string
		run  func(ex Exec) (*la.Dense, error)
	}{
		{"crossprod", dM.CrossProdExec},
		{"colsums", dM.ColSumsExec},
	} {
		want, err := op.run(exLocal)
		if err != nil {
			t.Fatal(err)
		}
		got, err := op.run(exPush)
		if err != nil {
			t.Fatalf("%s against a wrong-shape worker: %v", op.name, err)
		}
		if !sameFloatBits(want, got) {
			t.Fatalf("%s against a wrong-shape worker diverged from the local pass", op.name)
		}
		expectFallbacks(op.name, 1)
	}

	const k, iters = 3, 2
	want, err := KMeansExec(exLocal, dM, k, iters, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Assign.Free()
	for _, short := range []bool{false, true} {
		faulty.short.Store(short)
		got, err := KMeansExec(exPush, dM, k, iters, 7)
		if err != nil {
			t.Fatalf("kmeans (short counts %v) against a wrong-shape worker: %v", short, err)
		}
		if !sameFloatBits(want.Centroids, got.Centroids) || want.Objective != got.Objective || want.BytesRead != got.BytesRead {
			t.Fatalf("kmeans (short counts %v) against a wrong-shape worker diverged from the local pass", short)
		}
		if err := got.Assign.Free(); err != nil {
			t.Fatal(err)
		}
		expectFallbacks(fmt.Sprintf("kmeans (short counts %v)", short), iters)
	}
}
