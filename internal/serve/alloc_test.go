package serve

import (
	"math/rand"
	"testing"

	"repro/internal/epoch"
)

// TestSteadyStateZeroAlloc is the allocation audit: once warm, the
// request paths — ScoreBatchInto and ScoreRow on a full, a sharded, and
// an epoch-backed scorer, and ScoreBatchInto through both router
// placements and an epoch fleet — must not touch the heap. Pool-backed
// scratch is warmed by a few calls first so AllocsPerRun measures the
// steady state, not pool growth.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the allocation audit runs in the non-race pass")
	}
	rng := rand.New(rand.NewSource(51))
	nm := randStar(rng, false)
	w := randWeights(rng, nm.Cols())
	ids := make([]int, 32)
	for i := range ids {
		ids[i] = rng.Intn(nm.Rows())
	}
	out := make([]float64, len(ids))

	check := func(name string, score func() error) {
		t.Helper()
		for i := 0; i < 4; i++ { // warm pools and caches
			if err := score(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if a := testing.AllocsPerRun(100, func() {
			if err := score(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}); a != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, a)
		}
	}

	single, err := NewScorer(nm, w, Logistic)
	if err != nil {
		t.Fatal(err)
	}
	check("Scorer", func() error { return single.ScoreBatchInto(ids, out) })
	check("Scorer.ScoreRow", func() error { _, err := single.ScoreRow(ids[0]); return err })

	for _, pl := range placements() {
		rt, err := NewScorerFleet(nm, w, Logistic, 3, pl)
		if err != nil {
			t.Fatal(err)
		}
		check("Router/"+pl.String(), func() error { return rt.ScoreBatchInto(ids, out) })
	}

	sh, err := NewShardedScorer(nm, w, Logistic, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	owned := make([]int, 0, len(ids))
	for _, id := range ids {
		if sh.Owns(id) {
			owned = append(owned, id)
		}
	}
	ownedOut := make([]float64, len(owned))
	check("ShardedScorer", func() error { return sh.ScoreBatchInto(owned, ownedOut) })
	check("ShardedScorer.ScoreRow", func() error { _, err := sh.ScoreRow(owned[0]); return err })

	st, err := epoch.NewStore(nm)
	if err != nil {
		t.Fatal(err)
	}
	es, err := NewEpochScorer(st, w, Logistic)
	if err != nil {
		t.Fatal(err)
	}
	check("EpochScorer", func() error { return es.ScoreBatchInto(ids, out) })
	check("EpochScorer.ScoreRow", func() error { _, err := es.ScoreRow(ids[0]); return err })
	fleet, err := NewEpochFleet(st, w, Logistic, 3)
	if err != nil {
		t.Fatal(err)
	}
	check("Router/epoch", func() error { return fleet.ScoreBatchInto(ids, out) })
}
