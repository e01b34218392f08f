package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/la"
	"repro/internal/ml"
	"repro/internal/plan"
)

// train-ooc: planner-driven out-of-core training over a dense star spilled
// to two shards, a local directory and an in-process chunk server on
// loopback. Main operation: one job set (GLM, k-means, streamed
// cross-product); side operation: the GLM alone, the job that reads its
// chunks back instead of pushing work to the chunk server.
const (
	oocNR        = 1500 // rows of the first attribute table; the second has half
	oocTR        = 20   // tuple ratio nS / nR
	oocDS        = 20
	oocDR        = 40 // per attribute table: feature ratio 2 each, 4 overall
	oocChunkRows = 1500
	oocIters     = 5
	oocK         = 8
	oocAlpha     = 1e-6
	oocKMSeed    = 7
	oocMemBudget = 64 << 20
	oocTinyNR    = 60
	oocTinyChunk = 200
	// Tolerances of the repository's differential tests: chunked vs
	// in-memory factorized GLM (internal/core), streamed vs in-memory
	// k-means (internal/chunk), and the streamed cross-product, whose
	// O(nS)-magnitude entries are pinned to 1e-6 as in the chunkstar
	// experiment.
	oocLogRegTol    = 1e-12
	oocKMeansTol    = 1e-8
	oocCrossProdTol = 1e-6
)

// oocSetup is one build of the out-of-core program state.
type oocSetup struct {
	dir    string
	srv    *http.Server
	meter  *chunkdMeter
	store  *chunk.Store
	tM     *chunk.Matrix
	nt     *chunk.NormalizedTable
	env    plan.Env
	spill  time.Duration
	onDisk int64
	done   chan error
}

// oocJob is the output of one job set.
type oocJob struct {
	w, centroids, cp *la.Dense
	glm, km, cpDec   plan.Decision
}

func trainOOC(cfg config, tr *tracer) (*outcome, error) {
	base := runtime.NumGoroutine()
	nR, chunkRows := oocNR, oocChunkRows
	if cfg.tiny {
		nR, chunkRows = oocTinyNR, oocTinyChunk
	}
	nm, err := datagen.Star(datagen.StarSpec{NS: oocTR * nR, DS: oocDS, NR: []int{nR, nR / 2}, DR: []int{oocDR, oocDR}, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	y := datagen.Labels(nm, 0, true, cfg.seed)
	sc := &scope{}

	round := 0
	setups := newSetupSampler(cfg, tr, func() (*oocSetup, error) {
		round++
		return oocBuild(filepath.Join(cfg.workDir, fmt.Sprintf("ooc-%d", round)), nm, chunkRows, cfg.workers, tr, sc)
	}, oocTeardown)
	st, err := setups.first()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.e2e[mResident] = residentMB()
	chunksAtRest := st.store.LiveChunks()

	var jobs, glms []time.Duration
	var ref oocJob
	var refIO ioStats
	var chooseUS []float64
	rw := startRuntime(base)
	timedFrom := int64(0)
	if tr != nil {
		timedFrom = tr.now()
	}
	n, err := timedLoop(cfg.seconds, minTimedRuns(cfg), func(i int) error {
		var trace uint64
		if tr != nil {
			trace = tr.newID()
		}
		io0 := st.store.IOStats()
		var job oocJob
		t0 := time.Now()
		err := sc.driver(tr, "chunk.logreg", trace, func() error {
			r, d, err := plan.LogReg(st.env, st.tM, st.nt, y, oocIters, oocAlpha)
			if err == nil {
				job.w, job.glm = r.W, d
			}
			return err
		})
		if err != nil {
			return err
		}
		if i > 0 {
			glms = append(glms, time.Since(t0))
		}
		err = sc.driver(tr, "chunk.kmeans", trace, func() error {
			r, d, err := plan.KMeans(st.env, st.tM, oocK, oocIters, oocKMSeed)
			if err != nil {
				return err
			}
			job.centroids, job.km = r.Centroids, d
			return r.Assign.Free()
		})
		if err != nil {
			return err
		}
		err = sc.driver(tr, "chunk.crossprod", trace, func() error {
			c0 := time.Now()
			d := plan.Plan(plan.OpCrossProd, plan.StarOperands(st.tM, st.nt), st.env)
			chooseUS = append(chooseUS, float64(time.Since(c0))/1e3)
			cp, err := core.StreamedCrossProd(d.Strategy.Exec(), st.nt)
			job.cp, job.cpDec = cp, d
			return err
		})
		if err != nil {
			return err
		}
		if i > 0 {
			jobs = append(jobs, time.Since(t0))
		}
		io := ioDelta(st.store.IOStats(), io0)
		if st.store.LiveChunks() != chunksAtRest {
			return fmt.Errorf("job set %d left %d live chunks, %d before", i, st.store.LiveChunks(), chunksAtRest)
		}
		// The first job set warms up and is the reference every later one
		// must reproduce bit for bit, reading the same chunks.
		if i == 0 {
			ref, refIO = job, io
		} else if la.MaxAbsDiff(job.w, ref.w) != 0 || la.MaxAbsDiff(job.centroids, ref.centroids) != 0 ||
			la.MaxAbsDiff(job.cp, ref.cp) != 0 || io != refIO {
			out.failed++
		}
		return setups.extra()
	})
	rw.finish(out)
	out.attempted = n
	if err != nil {
		oocTeardown(st)
		return out, fmt.Errorf("training: %w", err)
	}
	out.io = &refIO

	if err := oocCheck(nm, y, ref); err != nil {
		oocTeardown(st)
		return out, err
	}
	if tr != nil {
		oocLayers(out, tr, st, n, refIO, timedFrom)
	}
	out.layer["plan.choose_us"] = median(chooseUS)
	out.layer["plan.plan_us"] = (ref.glm.PlanMicros + ref.km.PlanMicros + ref.cpDec.PlanMicros) / 3
	out.layer["plan.factorized"] = boolFloat(ref.glm.Strategy.Factorized)
	out.layer["plan.pushdown"] = boolFloat(ref.km.Strategy.Pushdown && ref.cpDec.Strategy.Pushdown)
	if err := oocTeardown(st); err != nil {
		return out, err
	}

	jobMS, glmMS := durMillis(jobs), durMillis(glms)
	jt := tailOf(append([]float64(nil), jobMS...))
	out.e2e[mMainP50] = median(jobMS)
	out.e2e[mSideP50] = median(glmMS)
	out.name("resident_mb", out.e2e[mResident], "MB", "live heap after set-up")
	out.name("train_s", out.e2e[mMainP50]/1e3, "s", fmt.Sprintf("median of %d job sets after a warm-up (GLM %d iters, k-means k=%d, crossprod)", len(jobs), oocIters, oocK))
	out.name("train_s_tail", jt.Value/1e3, "s", fmt.Sprintf("p%.1f of %d", 100*jt.Q, jt.N))
	out.name("glm_s", out.e2e[mSideP50]/1e3, "s", "median of the GLM driver alone")
	out.name("io_per_job", float64(refIO.BytesRead)/1e6, "MB", fmt.Sprintf("%d chunks read, %.3g MB on the wire", refIO.ChunksRead, float64(refIO.BytesOnWire)/1e6))
	out.name("plan", boolFloat(ref.glm.Strategy.Factorized), "bool", "GLM factorized: "+ref.glm.Rule)
	return out, finishSetup(out, setups, "chunkd start, materialized T, spill of T, S and FK columns")
}

// oocBuild starts the chunk server, opens the two-shard store,
// materializes the join T and spills it and the factorized star (S plus
// foreign-key columns) into it. With a tracer, the local backend and the chunk server
// are wrapped.
func oocBuild(dir string, nm *core.NormalizedMatrix, chunkRows, workers int, tr *tracer, sc *scope) (*oocSetup, error) {
	st := &oocSetup{dir: dir, done: make(chan error, 1)}
	cs, err := chunk.NewChunkServer(filepath.Join(dir, "chunkd"), 0)
	if err != nil {
		return nil, err
	}
	var h http.Handler = cs
	if tr != nil {
		st.meter = newChunkdMeter(cs, tr, sc)
		h = st.meter
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chunk server listen: %w", err)
	}
	st.srv = &http.Server{Handler: h}
	go func() { st.done <- st.srv.Serve(ln) }()
	fail := func(err error) (*oocSetup, error) {
		oocTeardown(st)
		return nil, err
	}
	remote, err := chunk.NewRemoteBackend("http://" + ln.Addr().String())
	if err != nil {
		return fail(err)
	}
	local, err := chunk.NewDirBackend(filepath.Join(dir, "local"))
	if err != nil {
		return fail(err)
	}
	if tr != nil {
		local = &tracedBackend{Backend: local, tr: tr, sc: sc}
	}
	if st.store, err = chunk.NewShardedStoreBackends([]chunk.Backend{local, remote}, chunk.RoundRobin); err != nil {
		return fail(err)
	}
	td := nm.Dense()
	t0 := time.Now()
	if st.tM, err = chunk.FromDense(st.store, td, chunkRows); err != nil {
		return fail(err)
	}
	if st.nt, err = chunkStar(st.store, nm, chunkRows); err != nil {
		return fail(err)
	}
	st.spill = time.Since(t0)
	st.onDisk = st.store.BytesOnDisk()
	st.env = plan.EnvFor(st.store, workers, oocMemBudget)
	return st, nil
}

// chunkStar spills the star's entity table and foreign-key columns; the
// attribute tables stay in memory.
func chunkStar(st *chunk.Store, nm *core.NormalizedMatrix, chunkRows int) (*chunk.NormalizedTable, error) {
	sM, err := chunk.FromDense(st, nm.S().Dense(), chunkRows)
	if err != nil {
		return nil, err
	}
	attrs := make([]chunk.AttrTable, nm.NumTables())
	for t, k := range nm.Ks() {
		fk, err := chunk.BuildIntVector(st, k.Assignments(), chunkRows)
		if err != nil {
			return nil, err
		}
		attrs[t] = chunk.AttrTable{FK: fk, R: nm.Rs()[t]}
	}
	return chunk.NewStarTable(sM, attrs)
}

// oocTeardown frees the spilled operands, checks that the store's
// accounting is back to zero, and stops the chunk server.
func oocTeardown(st *oocSetup) error {
	var errs []error
	if st.tM != nil {
		errs = append(errs, st.tM.Free())
	}
	if st.nt != nil {
		errs = append(errs, st.nt.Free())
	}
	if st.store != nil {
		if n, b := st.store.LiveChunks(), st.store.BytesOnDisk(); n != 0 || b != 0 {
			errs = append(errs, fmt.Errorf("store holds %d chunks (%d bytes) after freeing every operand", n, b))
		}
		errs = append(errs, st.store.Close())
	}
	if st.srv != nil {
		// Nothing is in flight once the store is closed, so the server
		// closes at once: a graceful Shutdown would wait five seconds for
		// a connection the client dialed but never used.
		errs = append(errs, st.srv.Close())
		if err := <-st.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, os.RemoveAll(st.dir))
	return errors.Join(errs...)
}

func ioDelta(a, b ioStats) ioStats {
	return ioStats{
		ChunksRead:    a.ChunksRead - b.ChunksRead,
		BytesRead:     a.BytesRead - b.BytesRead,
		ChunksSkipped: a.ChunksSkipped - b.ChunksSkipped,
		BytesSkipped:  a.BytesSkipped - b.BytesSkipped,
		BytesOnWire:   a.BytesOnWire - b.BytesOnWire,
	}
}

// oocCheck compares the chunked results with the in-memory factorized
// reference.
func oocCheck(nm *core.NormalizedMatrix, y *la.Dense, got oocJob) error {
	wRef, err := ml.LogisticRegressionGD(nm, y, nil, ml.Options{Iters: oocIters, StepSize: oocAlpha})
	if err != nil {
		return err
	}
	if d := la.MaxAbsDiff(got.w, wRef); d > oocLogRegTol {
		return fmt.Errorf("chunked GLM weights differ from in-memory factorized by %g", d)
	}
	kmRef, err := ml.KMeans(nm, oocK, ml.Options{Iters: oocIters, Seed: oocKMSeed})
	if err != nil {
		return err
	}
	if d := la.MaxAbsDiff(got.centroids, kmRef.Centroids); d > oocKMeansTol {
		return fmt.Errorf("chunked k-means centroids differ from in-memory by %g", d)
	}
	if d := la.MaxAbsDiff(got.cp, nm.CrossProd()); d > oocCrossProdTol {
		return fmt.Errorf("streamed crossprod differs from in-memory factorized by %g", d)
	}
	return nil
}

// oocLayers fills the chunk, backend and chunkd layer metrics from the
// traced pass's timed part, per job set.
func oocLayers(out *outcome, tr *tracer, st *oocSetup, jobs int, io ioStats, from int64) {
	var timed []span
	for _, s := range tr.snapshot() {
		if s.Start >= from {
			timed = append(timed, s)
		}
	}
	ss := indexSpans(timed)
	per := 1 / float64(jobs)
	out.layer["chunk.logreg_s"] = median(secondsOf(ss.byName["chunk.logreg"]))
	out.layer["chunk.kmeans_s"] = median(secondsOf(ss.byName["chunk.kmeans"]))
	out.layer["chunk.crossprod_s"] = median(secondsOf(ss.byName["chunk.crossprod"]))
	out.layer["chunk.spill_s"] = st.spill.Seconds()
	out.layer["chunk.spill_mb"] = float64(st.onDisk) / 1e6
	for _, name := range []string{"backend.local.read", "backend.local.write", "chunkd.get", "chunkd.put", "chunkd.exec"} {
		out.layer[name+"_s"] = ss.total(name) * per
		out.layer[name+"_calls"] = float64(ss.count(name)) * per
		out.layer[name+"_mb"] = float64(ss.size(name)) / 1e6 * per
	}
	out.layer["chunk.io.bytes_read_mb"] = float64(io.BytesRead) / 1e6
	out.layer["chunk.io.wire_mb"] = float64(io.BytesOnWire) / 1e6
	out.layer["chunk.io.chunks_read"] = float64(io.ChunksRead)
	out.layer["chunk.read_amp"] = float64(io.BytesRead) / float64(st.onDisk)

	// Of the remote chunks the pushdown passes (k-means, crossprod)
	// needed, the share the chunk server computed on in place rather than
	// shipping back.
	var execSpans []span
	var gets int
	for _, name := range []string{"chunk.kmeans", "chunk.crossprod"} {
		for _, d := range ss.byName[name] {
			for _, c := range ss.children[d.ID] {
				switch c.Name {
				case "chunkd.exec":
					execSpans = append(execSpans, c)
				case "chunkd.get":
					gets++
				}
			}
		}
	}
	if execed := st.meter.execChunksUnder(execSpans); execed+int64(gets) > 0 {
		out.layer["chunk.pushdown_share"] = float64(execed) / float64(execed+int64(gets))
	}
}

func secondsOf(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur().Seconds()
	}
	return out
}
