package main

import (
	"sync/atomic"
	"time"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
)

// timedPolicy wraps the learned policy and times every decision and every
// episode's Observe from outside the engine. It forwards each optional
// interface the engine type-asserts on its policy (cost estimates for
// convergence tracking, retired-query pruning on streams, table size and
// action counters for stats), so a wrapped run executes the same plans as
// an unwrapped one. At more than one worker the decision time includes the
// wait on the policy's lock.
type timedPolicy struct {
	inner *qlearn.Learned

	chooseN, chooseNs   atomic.Int64
	observeN, observeNs atomic.Int64
}

var _ policy.Policy = (*timedPolicy)(nil)

func newTimedPolicy(inner *qlearn.Learned) *timedPolicy { return &timedPolicy{inner: inner} }

// ChooseJoin implements policy.Policy.
func (p *timedPolicy) ChooseJoin(source query.InstID, lineage uint64, q bitset.Set, cands []int) int {
	t := time.Now()
	i := p.inner.ChooseJoin(source, lineage, q, cands)
	p.chooseNs.Add(int64(time.Since(t)))
	p.chooseN.Add(1)
	return i
}

// ChooseSel implements policy.Policy.
func (p *timedPolicy) ChooseSel(inst query.InstID, applied uint64, q bitset.Set, cands []int) int {
	t := time.Now()
	i := p.inner.ChooseSel(inst, applied, q, cands)
	p.chooseNs.Add(int64(time.Since(t)))
	p.chooseN.Add(1)
	return i
}

// Observe implements policy.Policy.
func (p *timedPolicy) Observe(entries []policy.LogEntry) {
	t := time.Now()
	p.inner.Observe(entries)
	p.observeNs.Add(int64(time.Since(t)))
	p.observeN.Add(1)
}

// EstimatedBestCost forwards the convergence-tracking estimate.
func (p *timedPolicy) EstimatedBestCost(phase policy.Phase, inst query.InstID, lineage uint64, q bitset.Set, cands []int) float64 {
	return p.inner.EstimatedBestCost(phase, inst, lineage, q, cands)
}

// PruneRetired forwards the stream garbage collector's policy pruning.
func (p *timedPolicy) PruneRetired(retired bitset.Set) int { return p.inner.PruneRetired(retired) }

// TableSize forwards the Q-table size.
func (p *timedPolicy) TableSize() int { return p.inner.TableSize() }

// ActionCounts forwards the explore/exploit counters.
func (p *timedPolicy) ActionCounts() (explores, exploits int64) { return p.inner.ActionCounts() }

// policyTimes is a snapshot of the wrapper's counters.
type policyTimes struct {
	chooseN, chooseNs, observeN, observeNs int64
}

func (p *timedPolicy) times() policyTimes {
	return policyTimes{p.chooseN.Load(), p.chooseNs.Load(), p.observeN.Load(), p.observeNs.Load()}
}

func (a *policyTimes) add(b policyTimes) {
	a.chooseN += b.chooseN
	a.chooseNs += b.chooseNs
	a.observeN += b.observeN
	a.observeNs += b.observeNs
}
