package experiments

import (
	"fmt"

	"repro/internal/chunk"
	"repro/internal/la"
	"repro/internal/plan"
)

// The Config.Plan twin-check helpers: each runs a workload through the
// planner seam, asserts the planner-chosen path reproduces the explicit
// run it selected bit for bit (MaxAbsDiff == 0, not a tolerance — the
// planner only dispatches, it must never change results), and appends the
// labeled Decision to the Result. A divergence is an error, so
// `morpheus-bench -plan` exits nonzero and the CI plan-smoke step fails.

// planEnv gathers the planner environment from the run's store and
// config: shard count, per-shard bytes, exec capability, worker bound,
// and the memory budget.
func planEnv(cfg Config, st *chunk.Store) plan.Env {
	return plan.EnvFor(st, cfg.Workers, int64(memBudgetMB(cfg))<<20)
}

// plannedGLM checks the planner-driven star/PK-FK GLM against the twin
// weights of the explicit materialized and factorized runs.
func plannedGLM(res *Result, label string, env plan.Env, tM *chunk.Matrix, nt *chunk.NormalizedTable, y *la.Dense, iters int, alpha float64, twinM, twinF *la.Dense) error {
	pr, d, err := plan.LogReg(env, tM, nt, y, iters, alpha)
	if err != nil {
		return fmt.Errorf("experiments: %s: planned GLM: %w", label, err)
	}
	twin := twinM
	if d.Strategy.Factorized {
		twin = twinF
	}
	if la.MaxAbsDiff(pr.W, twin) != 0 {
		return fmt.Errorf("experiments: %s: planner-chosen GLM path diverged from its explicit twin (%s)", label, d.Rule)
	}
	d.Label = label
	res.Decisions = append(res.Decisions, d)
	return nil
}

// plannedGLMMN is plannedGLM for M:N joins.
func plannedGLMMN(res *Result, label string, env plan.Env, tM *chunk.Matrix, mn *chunk.MNTable, y *la.Dense, iters int, alpha float64, twinM, twinF *la.Dense) error {
	pr, d, err := plan.LogRegMN(env, tM, mn, y, iters, alpha)
	if err != nil {
		return fmt.Errorf("experiments: %s: planned MN GLM: %w", label, err)
	}
	twin := twinM
	if d.Strategy.Factorized {
		twin = twinF
	}
	if la.MaxAbsDiff(pr.W, twin) != 0 {
		return fmt.Errorf("experiments: %s: planner-chosen MN GLM path diverged from its explicit twin (%s)", label, d.Rule)
	}
	d.Label = label
	res.Decisions = append(res.Decisions, d)
	return nil
}

// plannedKMeans checks the planner-driven k-means against an explicit
// twin run, then releases the planner run's assignment column.
func plannedKMeans(res *Result, label string, env plan.Env, t *chunk.Matrix, k, iters int, seed int64, twin *chunk.KMeansResult) error {
	pr, d, err := plan.KMeans(env, t, k, iters, seed)
	if err != nil {
		return fmt.Errorf("experiments: %s: planned k-means: %w", label, err)
	}
	diverged := la.MaxAbsDiff(pr.Centroids, twin.Centroids) != 0 || pr.Objective != twin.Objective
	if err := pr.Assign.Free(); err != nil {
		return err
	}
	if diverged {
		return fmt.Errorf("experiments: %s: planner-chosen k-means diverged from its explicit twin (%s)", label, d.Rule)
	}
	d.Label = label
	res.Decisions = append(res.Decisions, d)
	return nil
}

// plannedGNMF checks the planner-driven GNMF against the explicit twin's
// H factor, then releases the planner run's chunked W.
func plannedGNMF(res *Result, label string, env plan.Env, t *chunk.Matrix, rank, iters int, seed int64, twinH *la.Dense) error {
	pr, d, err := plan.GNMF(env, t, rank, iters, seed)
	if err != nil {
		return fmt.Errorf("experiments: %s: planned GNMF: %w", label, err)
	}
	diverged := la.MaxAbsDiff(pr.H, twinH) != 0
	if err := pr.W.Free(); err != nil {
		return err
	}
	if diverged {
		return fmt.Errorf("experiments: %s: planner-chosen GNMF diverged from its explicit twin (%s)", label, d.Rule)
	}
	d.Label = label
	res.Decisions = append(res.Decisions, d)
	return nil
}
