package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/ml"
	"repro/internal/plan"
	"repro/internal/realdata"
)

// train-inmem: the morpheus-train path on a Table 6 clone. Main operation:
// one training job set on the planner-chosen operand (logistic regression
// then k-means); side operation: the same logistic regression on the
// materialized sparse join, the paper's M baseline.
const (
	inmemDataset   = "Expedia"
	inmemScale     = 40   // Table 6 row counts divided by this
	inmemTinyScale = 4000 // test size
	inmemIters     = 20
	inmemK         = 10
	inmemStep      = 1e-6
	inmemKMSeed    = 7
	// Tolerances of the repository's materialized-vs-factorized
	// differential tests (internal/ml): logistic weights and centroids.
	inmemLogRegTol = 1e-9
	inmemKMeansTol = 1e-7
)

type inmemSetup struct {
	operand la.Matrix
	dec     plan.Decision
	choose  time.Duration
	sparse  *la.CSR
}

// inmemJob is the output of one training job set.
type inmemJob struct {
	w  *la.Dense
	km *ml.KMeansResult
}

func trainInmem(cfg config, tr *tracer) (*outcome, error) {
	base := runtime.NumGoroutine()
	scale := inmemScale
	if cfg.tiny {
		scale = inmemTinyScale
	}
	spec, err := realdata.SpecByName(inmemDataset)
	if err != nil {
		return nil, err
	}
	ds, err := realdata.Generate(spec.Scaled(scale), cfg.seed)
	if err != nil {
		return nil, err
	}
	nm, y := ds.Norm, ds.BinaryY()

	// Set-up: the planner's choice of operand and the materialized join
	// the M baseline trains on.
	setups := newSetupSampler(cfg, tr, func() (inmemSetup, error) {
		t0 := time.Now()
		op, dec := plan.Choose(plan.OpGLM, plan.Env{Workers: cfg.workers}, nm)
		choose := time.Since(t0)
		return inmemSetup{operand: op, dec: dec, choose: choose, sparse: nm.Sparse()}, nil
	}, func(inmemSetup) error { return nil })
	st, err := setups.first()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.e2e[mResident] = residentMB()

	sc := &scope{}
	operand, matOperand := st.operand, la.Matrix(st.sparse)
	var meter *opMeter
	if tr != nil {
		tm := newTracedMatrix(operand, tr, sc, "core")
		meter = tm.meter
		operand = tm
		matOperand = newTracedMatrix(st.sparse, tr, sc, "la")
	}
	k := min(inmemK, nm.Rows())
	opt := ml.Options{Iters: inmemIters, StepSize: inmemStep}
	kmOpt := ml.Options{Iters: inmemIters, Seed: inmemKMSeed}

	var ref inmemJob
	var refMat *la.Dense
	var jobs, mats []time.Duration
	rw := startRuntime(base)
	n, err := timedLoop(cfg.seconds, minTimedRuns(cfg), func(i int) error {
		var trace uint64
		if tr != nil {
			trace = tr.newID()
		}
		var job inmemJob
		t0 := time.Now()
		err := sc.driver(tr, "ml.logreg", trace, func() (err error) {
			job.w, err = ml.LogisticRegressionGD(operand, y, nil, opt)
			return err
		})
		if err == nil {
			err = sc.driver(tr, "ml.kmeans", trace, func() (err error) {
				job.km, err = ml.KMeans(operand, k, kmOpt)
				return err
			})
		}
		if err != nil {
			return err
		}
		if i > 0 {
			jobs = append(jobs, time.Since(t0))
		}

		var wMat *la.Dense
		t1 := time.Now()
		err = sc.driver(tr, "ml.logreg_mat", trace, func() (err error) {
			wMat, err = ml.LogisticRegressionGD(matOperand, y, nil, opt)
			return err
		})
		if err != nil {
			return err
		}
		if i > 0 {
			mats = append(mats, time.Since(t1))
		}

		// The first job set warms up and is the reference every later one
		// must reproduce bit for bit.
		if i == 0 {
			ref, refMat = job, wMat
		} else if la.MaxAbsDiff(job.w, ref.w) != 0 || la.MaxAbsDiff(job.km.Centroids, ref.km.Centroids) != 0 || la.MaxAbsDiff(wMat, refMat) != 0 {
			out.failed++
		}
		return setups.extra()
	})
	rw.finish(out)
	out.attempted = n
	if err != nil {
		return out, fmt.Errorf("training: %w", err)
	}

	// Factorized ≡ materialized, with the differential tests' tolerances.
	wF, kmF := ref.w, ref.km
	if _, factorized := st.operand.(*core.NormalizedMatrix); !factorized {
		if wF, err = ml.LogisticRegressionGD(nm, y, nil, opt); err != nil {
			return out, err
		}
		if kmF, err = ml.KMeans(nm, k, kmOpt); err != nil {
			return out, err
		}
	}
	if d := la.MaxAbsDiff(wF, refMat); d > inmemLogRegTol {
		return out, fmt.Errorf("factorized logistic weights differ from materialized by %g", d)
	}
	kmM, err := ml.KMeans(st.sparse, k, kmOpt)
	if err != nil {
		return out, err
	}
	if d := la.MaxAbsDiff(kmF.Centroids, kmM.Centroids); d > inmemKMeansTol {
		return out, fmt.Errorf("factorized k-means centroids differ from materialized by %g", d)
	}

	jobMS, matMS := durMillis(jobs), durMillis(mats)
	jt := tailOf(append([]float64(nil), jobMS...))
	out.e2e[mMainP50] = median(jobMS)
	out.e2e[mSideP50] = median(matMS)
	out.name("resident_mb", out.e2e[mResident], "MB", "live heap after set-up")
	out.name("train_s", out.e2e[mMainP50]/1e3, "s", fmt.Sprintf("median of %d job sets after a warm-up (logreg %d iters + k-means k=%d)", len(jobs), inmemIters, k))
	out.name("train_s_tail", jt.Value/1e3, "s", fmt.Sprintf("p%.1f of %d", 100*jt.Q, jt.N))
	out.name("train_mat_s", out.e2e[mSideP50]/1e3, "s", fmt.Sprintf("median of %d materialized logreg runs", len(mats)))
	out.name("plan", boolFloat(st.dec.Strategy.Factorized), "bool", "factorized: "+st.dec.Rule)

	out.layer["plan.choose_us"] = float64(st.choose) / 1e3
	out.layer["plan.plan_us"] = st.dec.PlanMicros
	out.layer["plan.factorized"] = boolFloat(st.dec.Strategy.Factorized)
	if tr != nil {
		inmemLayers(out, tr, meter, cfg, n)
	}
	return out, finishSetup(out, setups, "planner choice + sparse join")
}

// inmemLayers fills the core/ml/la layer metrics from the traced pass, per
// job set, and runs the bandwidth probe they are read against.
func inmemLayers(out *outcome, tr *tracer, meter *opMeter, cfg config, jobs int) {
	ss := indexSpans(tr.snapshot())
	per := 1 / float64(jobs)
	var coreS float64
	var coreBytes int64
	calls := 0
	for _, kind := range []string{"mul", "leftmul", "crossprod", "agg", "elementwise", "other"} {
		name := "core." + kind
		coreS += ss.total(name)
		coreBytes += ss.size(name)
		calls += ss.count(name)
		if kind != "other" {
			out.layer[name+"_s"] = ss.total(name) * per
		}
	}
	out.layer["core.calls"] = float64(calls) * per
	if coreS > 0 {
		out.layer["core.gbs"] = float64(coreBytes) / coreS / 1e9
		out.layer["core.gflops"] = float64(meter.flops.Load()) / coreS / 1e9
	}
	out.layer["ml.self_s"] = (ss.selfTime("ml.logreg") + ss.selfTime("ml.kmeans")) * per
	out.layer["la.mul_s"] = ss.total("la.mul") * per
	out.layer["la.leftmul_s"] = ss.total("la.leftmul") * per
	out.layer["la.other_s"] = ss.total("la.other") * per

	llc := llcBytes()
	arrayBytes := 4 * llc
	if arrayBytes < 64<<20 {
		arrayBytes = 64 << 20
	}
	if cfg.tiny {
		arrayBytes = 4 << 20
	}
	gbs := streamTriad(arrayBytes, cfg.workers, 5)
	out.layer["la.stream_gbs"] = gbs
	out.name("la.stream_gbs", gbs, "GB/s", fmt.Sprintf("STREAM triad, 3 arrays of %.0f MB each; last-level cache %.0f MB", float64(arrayBytes)/1e6, float64(llc)/1e6))
	out.name("core.gbs", out.layer["core.gbs"], "GB/s", "computed: stored base-table bytes + dense in/out per operator call, over operator time")
}

// minTimedRuns is the least number of job sets a training run makes: an
// untimed warm-up plus enough timed ones to support a tail percentile.
func minTimedRuns(cfg config) int {
	if cfg.tiny {
		return 2
	}
	return minBeyond + 2
}

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
