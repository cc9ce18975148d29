package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
)

// triangleDB: fact joins d1 and d2, and d1 joins d2 directly (so queries
// can close the triangle). d1/d2 carry a "link" column over the same small
// domain.
func triangleDB(rng *rand.Rand) *storage.Database {
	db := starDB(rng, 250, 25)
	// Reuse the star schema; d1.a and d2.a act as the cycle columns (domain
	// 0..99 with overlap).
	return db
}

// cyclicQueries close the fact-d1-d2 triangle with d1.a = d2.a.
func cyclicQueries(rng *rand.Rand, n int) []*query.Query {
	var qs []*query.Query
	for i := 0; i < n; i++ {
		q := &query.Query{
			Rels: []query.RelRef{{Table: "fact"}, {Table: "d1"}, {Table: "d2"}},
			Joins: []query.Join{
				{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"},
				{LeftAlias: "fact", LeftCol: "fk2", RightAlias: "d2", RightCol: "k"},
				{LeftAlias: "d1", LeftCol: "a", RightAlias: "d2", RightCol: "a"},
			},
		}
		if rng.Intn(2) == 0 {
			lo := int64(rng.Intn(60))
			q.Filters = append(q.Filters, query.Filter{Alias: "fact", Col: "v", Lo: lo, Hi: lo + 30})
		}
		qs = append(qs, q)
	}
	return qs
}

// TestCyclicQueriesMatchOracle checks residual predicates against the
// oracle under every policy, for a one-word batch and an 80-query batch
// whose two-word query sets take the multi-word probe and residual paths.
func TestCyclicQueriesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := triangleDB(rng)
	for _, n := range []int{8, 80} {
		qs := cyclicQueries(rng, n)
		for name, mk := range map[string]func(*query.Batch, *exec.Context) policy.Policy{
			"learned": func(*query.Batch, *exec.Context) policy.Policy { return qlearn.New(qlearn.DefaultConfig()) },
			"greedy": func(b *query.Batch, ctx *exec.Context) policy.Policy {
				return policy.NewGreedy(b, ctx.NumSelOps())
			},
			"random": func(*query.Batch, *exec.Context) policy.Policy { return policy.NewRandom(5) },
		} {
			tname := name // the 8-query subtests keep their original names
			if n > 64 {
				tname = fmt.Sprintf("%s-%dq", name, n)
			}
			t.Run(tname, func(t *testing.T) {
				b, err := query.Compile(qs)
				if err != nil {
					t.Fatal(err)
				}
				if len(b.Residuals) == 0 {
					t.Fatal("no residuals compiled")
				}
				opt := exec.DefaultOptions()
				opt.VectorSize = 64
				opt.CollectRows = false
				ctx, err := exec.NewContext(b, db, opt, nil)
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewSession(b, db, Config{Exec: opt, Policy: mk(b, ctx)})
				if err != nil {
					t.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				for qid, q := range qs {
					if want := oracleCount(db, q); res.Counts[qid] != want {
						t.Errorf("query %d: count %d, oracle %d", qid, res.Counts[qid], want)
					}
				}
			})
		}
	}
}

func TestCyclicProjectionToggles(t *testing.T) {
	// The residual's early endpoint must survive adaptive projections.
	rng := rand.New(rand.NewSource(67))
	db := triangleDB(rng)
	qs := cyclicQueries(rng, 4)
	for _, adaptive := range []bool{true, false} {
		opt := exec.DefaultOptions()
		opt.VectorSize = 32
		opt.AdaptiveProjections = adaptive
		runAndCheck(t, db, qs, Config{Exec: opt})
	}
}

func TestCyclicQatAndMonetAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := triangleDB(rng)
	qs := cyclicQueries(rng, 6)
	e := qat.New(db)
	for i, q := range qs {
		got, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleCount(db, q); got != want {
			t.Errorf("qat query %d: %d, oracle %d", i, got, want)
		}
	}
}

func TestCyclicMixedWithTreeQueries(t *testing.T) {
	// Batches mixing cyclic and tree queries share edges; residuals apply
	// only to their owners.
	rng := rand.New(rand.NewSource(73))
	db := triangleDB(rng)
	qs := append(cyclicQueries(rng, 3), starQueries(rng, 5)...)
	opt := exec.DefaultOptions()
	opt.VectorSize = 64
	runAndCheck(t, db, qs, Config{Exec: opt})
}

// mixedResidualQueries draws triangle queries whose cycle-closing residuals
// sit on different column pairs — d1.a = d2.a, d1.k = d2.a, and fact.v =
// d2.a, which spans instances of different sizes — so a residual that
// reads another's columns gives a wrong count or an out-of-range vID.
func mixedResidualQueries(rng *rand.Rand, n int) []*query.Query {
	shapes := [][]query.Join{
		{{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"},
			{LeftAlias: "fact", LeftCol: "fk2", RightAlias: "d2", RightCol: "k"},
			{LeftAlias: "d1", LeftCol: "a", RightAlias: "d2", RightCol: "a"}},
		{{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"},
			{LeftAlias: "fact", LeftCol: "fk2", RightAlias: "d2", RightCol: "k"},
			{LeftAlias: "d1", LeftCol: "k", RightAlias: "d2", RightCol: "a"}},
		{{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"},
			{LeftAlias: "d1", LeftCol: "a", RightAlias: "d2", RightCol: "a"},
			{LeftAlias: "fact", LeftCol: "v", RightAlias: "d2", RightCol: "a"}},
	}
	qs := make([]*query.Query, n)
	for i := range qs {
		qs[i] = &query.Query{
			Rels:  []query.RelRef{{Table: "fact"}, {Table: "d1"}, {Table: "d2"}},
			Joins: shapes[i%len(shapes)],
		}
		if rng.Intn(2) == 0 {
			lo := int64(rng.Intn(60))
			qs[i].Filters = []query.Filter{{Alias: "fact", Col: "v", Lo: lo, Hi: lo + 40}}
		}
	}
	return qs
}

// TestCyclicStreamRetirementMatchesOracle is the regression test for residual
// columns drifting after retirement: RetireQueries compacts the batch's
// residual list, and the executor's residual columns must follow it. A
// stream of triangle queries with differently placed residuals churns
// through a small query-ID pool, so queries retire while others with
// residuals stay live and new ones arrive; every query must complete and
// match the brute-force oracle.
func TestCyclicStreamRetirementMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	db := starDB(rng, 400, 25)
	qs := mixedResidualQueries(rng, 30)
	opt := exec.DefaultOptions()
	opt.VectorSize = 64
	var rec *retireRecorder
	s, err := NewSession(query.NewStreamBatch(4), db, Config{
		Exec: opt, Workers: 2, Streaming: true,
		OnRetire: func(qid int, st QueryStatus) { rec.onRetire(qid, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = newRetireRecorder(s)
	join := streamRun(t, s)
	for i, q := range qs {
		deadline := time.Now().Add(60 * time.Second)
		for {
			qid, err := s.SubmitLiveMeta(q, SubmitMeta{})
			if err == nil {
				rec.track(qid)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("submission %d never admitted: %v", i, err)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	s.CloseSubmit()
	join()

	if completed := rec.check(t, db, qs); completed != len(qs) {
		t.Errorf("%d of %d submissions completed", completed, len(qs))
	}
}
