package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/tpcds"
	"github.com/roulette-db/roulette/internal/workload"
)

// workloadRunner runs one named workload for one invocation.
type workloadRunner interface {
	run(cfg config) (*report, error)
}

// The four workloads. Their names are cited by later changes; README.md
// records why each exists and how it was sized.
var workloads = map[string]workloadRunner{
	// The paper's headline regime: large shared batches where shared
	// filters, STeM insert/probe and the learned policy do the work.
	"tpcds-shared": &batchWorkload{
		scale: 0.5, genDB: tpcds.Generate, genPool: tpcdsPool,
		batchSize: 512, workers: 2, countsOnly: true,
		goodput: 300 * time.Millisecond, warmup: 2,
	},
	// The bypass workload: one query per batch, so per-batch fixed costs
	// (compile, context and STeM construction, worker start, a cold
	// policy) dominate and sharing or lock changes should not move it.
	"tpcds-single": &batchWorkload{
		scale: 1, genDB: tpcds.Generate, genPool: tpcdsPool,
		batchSize: 1, workers: 1, countsOnly: true,
		goodput: 20 * time.Millisecond, warmup: 50,
	},
	// String/NULL predicates, grouped results decoded by the host, and a
	// policy warm-started from a PolicyStore across recurring templates.
	// The database is fixed: its dimension tables do not scale (100
	// suppliers), so the database a seed draws moved intermediate tuples
	// per query by ±10% between seeds.
	"strings-recurring": &batchWorkload{
		scale: 0.25, genDB: workload.StringsDB, genPool: stringsPool,
		batchSize: 24, workers: 1, withStore: true, recurring: true,
		goodput: 150 * time.Millisecond, warmup: 4, dbSeed: 1,
	},
	// Open-loop JOB-like arrivals into one long-lived stream: live
	// admission, the streaming scheduler, epoch reclamation, concurrent
	// STeM GC and policy pruning all run at once.
	"job-stream": &streamWorkload{
		scale: 1, poolSize: 1024, rate: 100, maxQueries: 128,
		workers: 2, tenants: 3, goodput: 100 * time.Millisecond, warmup: 32,
	},
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// policySeed seeds the learned policy's exploration in every run. The
// engine's configuration stays fixed across runs; --seed varies only the
// generated inputs.
const policySeed = 1

// setupRepeats is how many times a run sets up its workload; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 7

// tpcdsPoolSize is the paper's per-configuration query pool (§6.1).
const tpcdsPoolSize = 4096

// tpcdsPool draws the paper-default TPC-DS pool: 10% selectivity, 4 joins,
// snowflake-store.
func tpcdsPool(seed int64) []*query.Query {
	p := workload.DefaultParams()
	p.Seed = seed
	return workload.NewGenerator(p).Generate(tpcdsPoolSize)
}

// stringsPoolSize bounds the string workload's pool; batches are
// contiguous windows of it, so every batch holds the same template mix.
const stringsPoolSize = 1024

// stringsPool draws the TPC-H-shaped string workload and groups each query
// by a string column, so rows are collected and labels decoded.
func stringsPool(seed int64) []*query.Query {
	pool := workload.NewStringsGen(seed).Generate(stringsPoolSize)
	for _, q := range pool {
		q.Agg.GroupByAlias, q.Agg.GroupByCol = stringsGroupKey(q)
	}
	return pool
}

// stringsGroupKey picks a string column of one of the query's relations.
func stringsGroupKey(q *query.Query) (alias, col string) {
	has := map[string]bool{}
	for _, r := range q.Rels {
		has[r.Table] = true
	}
	switch {
	case has["part"]:
		return "part", "p_brand"
	case has["supplier"]:
		return "supplier", "s_nation"
	case has["customer"]:
		return "customer", "c_mktsegment"
	default:
		return "orders", "o_orderpriority"
	}
}

// referenceCounts computes every pool query's COUNT(*) with the
// tuple-at-a-time engine. It runs once per seed, outside every timed
// section.
func referenceCounts(db *storage.Database, pool []*query.Query) ([]int64, error) {
	qs := make([]*query.Query, len(pool))
	for i, q := range pool {
		cp := *q
		qs[i] = &cp
	}
	counts, _, err := qat.New(db).RunConcurrent(qs, 2)
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	return counts, nil
}

// setupTimes collects each set-up's phase durations.
type setupTimes struct {
	total, datagen, engine []float64
}

func (s *setupTimes) add(datagen, engine time.Duration) {
	s.datagen = append(s.datagen, datagen.Seconds())
	s.engine = append(s.engine, engine.Seconds())
	s.total = append(s.total, (datagen + engine).Seconds())
}

func (s *setupTimes) into(vals map[string]float64, traced bool) {
	if traced {
		vals["setup.datagen_s"] = quantile(s.datagen, 0.5)
		vals["setup.engine_s"] = quantile(s.engine, 0.5)
	} else {
		vals["setup_s"] = quantile(s.total, 0.5)
	}
}

// outcome tallies answers against the reference.
type outcome struct {
	attempted, failed int64
}

func (o *outcome) report(vals map[string]float64, traced bool) *report {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return &report{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   fill(defs, vals),
	}
}
