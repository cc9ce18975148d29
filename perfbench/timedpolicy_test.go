package main

import (
	"reflect"
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/tpcds"
)

// The optional interfaces the engine type-asserts on its policy.
var (
	_ interface {
		EstimatedBestCost(policy.Phase, query.InstID, uint64, bitset.Set, []int) float64
	} = (*timedPolicy)(nil)
	_ interface{ PruneRetired(bitset.Set) int }  = (*timedPolicy)(nil)
	_ interface{ TableSize() int }               = (*timedPolicy)(nil)
	_ interface{ ActionCounts() (int64, int64) } = (*timedPolicy)(nil)
)

// TestTimedPolicyRunsSamePlans checks that wrapping the learned policy
// changes nothing the engine computes: at one worker and a fixed seed the
// wrapped and the unwrapped run give identical counts, episodes,
// intermediate join tuples, convergence estimates and policy counters.
func TestTimedPolicyRunsSamePlans(t *testing.T) {
	db := tpcds.Generate(0.2, 5)
	pool := tpcdsPool(5)[:48]
	run := func(wrap bool) (*engine.Results, *timedPolicy) {
		qs := make([]*query.Query, len(pool))
		for i, q := range pool {
			cp := *q
			qs[i] = &cp
		}
		b, err := query.Compile(qs)
		if err != nil {
			t.Fatal(err)
		}
		qcfg := qlearn.DefaultConfig()
		qcfg.Seed = 7
		var pol policy.Policy = qlearn.New(qcfg)
		var timed *timedPolicy
		if wrap {
			timed = newTimedPolicy(pol.(*qlearn.Learned))
			pol = timed
		}
		opt := exec.DefaultOptions()
		opt.CollectStats = true
		s, err := engine.NewSession(b, db, engine.Config{Exec: opt, Workers: 1, Policy: pol, TrackConvergence: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, timed
	}
	plain, _ := run(false)
	wrapped, timed := run(true)
	if plain.Episodes != wrapped.Episodes || plain.JoinTuples != wrapped.JoinTuples {
		t.Fatalf("wrapped run: %d episodes, %d join tuples; unwrapped: %d, %d",
			wrapped.Episodes, wrapped.JoinTuples, plain.Episodes, plain.JoinTuples)
	}
	for i := range plain.Counts {
		if plain.Counts[i] != wrapped.Counts[i] {
			t.Errorf("query %d: wrapped count %d, unwrapped %d", i, wrapped.Counts[i], plain.Counts[i])
		}
	}
	if !reflect.DeepEqual(plain.Convergence, wrapped.Convergence) {
		t.Errorf("convergence estimates differ between the wrapped and the unwrapped run")
	}
	if plain.Stats.Policy != wrapped.Stats.Policy {
		t.Errorf("policy stats differ: wrapped %+v, unwrapped %+v", wrapped.Stats.Policy, plain.Stats.Policy)
	}
	pt := timed.times()
	if pt.chooseN == 0 || pt.observeN == 0 || pt.chooseNs <= 0 || pt.observeNs <= 0 {
		t.Fatalf("wrapper recorded no decisions or observations: %+v", pt)
	}
}
