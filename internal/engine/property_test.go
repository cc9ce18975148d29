package engine

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
)

// randomSchemaDB builds a random star/snowflake database: one fact with
// 2-4 dimension FKs, each dimension optionally with a sub-dimension, random
// sizes and value columns.
func randomSchemaDB(rng *rand.Rand) (*storage.Database, []string, map[string]string) {
	nDims := 2 + rng.Intn(3)
	factCols := []string{"v"}
	dims := make([]string, nDims)
	subOf := map[string]string{} // dim -> sub-dimension name (if any)
	for d := 0; d < nDims; d++ {
		dims[d] = "d" + string(rune('a'+d))
		factCols = append(factCols, "fk_"+dims[d])
	}
	rels := []*catalog.Relation{catalog.NewRelation("fact", factCols...)}
	for _, d := range dims {
		cols := []string{"k", "v"}
		if rng.Intn(2) == 0 {
			sub := d + "_sub"
			subOf[d] = sub
			cols = append(cols, "fk_sub")
			rels = append(rels, catalog.NewRelation(sub, "k", "v"))
		}
		rels = append(rels, catalog.NewRelation(d, cols...))
	}
	sch := catalog.NewSchema(rels...)
	db := storage.NewDatabase(sch)

	dimRows := 10 + rng.Intn(30)
	subRows := 5 + rng.Intn(15)
	factRows := 100 + rng.Intn(200)

	for _, d := range dims {
		t := storage.NewTable(sch.Relation(d), dimRows)
		for i := 0; i < dimRows; i++ {
			t.Col("k")[i] = int64(i)
			t.Col("v")[i] = int64(rng.Intn(50))
		}
		if sub, ok := subOf[d]; ok {
			st := storage.NewTable(sch.Relation(sub), subRows)
			for i := 0; i < subRows; i++ {
				st.Col("k")[i] = int64(i)
				st.Col("v")[i] = int64(rng.Intn(50))
			}
			db.Put(st)
			fk := t.Col("fk_sub")
			for i := range fk {
				fk[i] = int64(rng.Intn(subRows))
			}
		}
		db.Put(t)
	}
	ft := storage.NewTable(sch.Relation("fact"), factRows)
	ft.Col("v")
	for i := 0; i < factRows; i++ {
		ft.Col("v")[i] = int64(rng.Intn(50))
		for _, d := range dims {
			ft.Col("fk_" + d)[i] = int64(rng.Intn(dimRows))
		}
	}
	db.Put(ft)
	return db, dims, subOf
}

// randomQueryOn draws a random query over the schema: a subset of
// dimensions (optionally their sub-dimensions) and random filters.
func randomQueryOn(rng *rand.Rand, dims []string, subOf map[string]string) *query.Query {
	q := &query.Query{Rels: []query.RelRef{{Table: "fact"}}}
	perm := rng.Perm(len(dims))
	n := 1 + rng.Intn(len(dims))
	for _, di := range perm[:n] {
		d := dims[di]
		q.Rels = append(q.Rels, query.RelRef{Table: d})
		q.Joins = append(q.Joins, query.Join{LeftAlias: "fact", LeftCol: "fk_" + d, RightAlias: d, RightCol: "k"})
		if sub, ok := subOf[d]; ok && rng.Intn(2) == 0 {
			q.Rels = append(q.Rels, query.RelRef{Table: sub})
			q.Joins = append(q.Joins, query.Join{LeftAlias: d, LeftCol: "fk_sub", RightAlias: sub, RightCol: "k"})
		}
	}
	// Random filters on any present relation's v column.
	for _, r := range q.Rels {
		if rng.Intn(3) != 0 {
			continue
		}
		alias := r.Alias
		if alias == "" {
			alias = r.Table
		}
		lo := int64(rng.Intn(40))
		q.Filters = append(q.Filters, query.Filter{Alias: alias, Col: "v", Lo: lo, Hi: lo + int64(rng.Intn(20))})
	}
	// Occasionally close a cycle between two dimensions through their v
	// columns (exercises residual predicates).
	if n >= 2 && rng.Intn(3) == 0 {
		a, b := dims[perm[0]], dims[perm[1]]
		q.Joins = append(q.Joins, query.Join{LeftAlias: a, LeftCol: "v", RightAlias: b, RightCol: "v"})
	}
	return q
}

// wordBoundarySizes are batch sizes on either side of the 64-query word
// boundary and past it: one-, two-, three- and four-word query sets, so the
// multi-word probe, residual, routing-selection and router paths run
// against the oracle.
var wordBoundarySizes = []int{63, 64, 65, 130, 200}

// TestPropertyEngineMatchesBaselines is the repository's randomized
// correctness property: on random schemas, data, and query batches —
// including self-closing cycles, sub-dimensions and random filters —
// RouLette's shared adaptive execution produces exactly the per-query
// counts of the query-at-a-time engine. A third of the quick-check cases
// and a deterministic sweep draw batches across query-set word
// boundaries; half of each run with CollectRows, where the routed rows
// themselves are checked too.
func TestPropertyEngineMatchesBaselines(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nQ := 1 + rng.Intn(10)
		if rng.Intn(3) == 0 {
			nQ = wordBoundarySizes[rng.Intn(len(wordBoundarySizes))]
		}
		return checkEngineMatchesQat(t, seed, rng, nQ, rng.Intn(2) == 0)
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	for i, nQ := range wordBoundarySizes {
		seed := int64(1000 + i)
		if !checkEngineMatchesQat(t, seed, rand.New(rand.NewSource(seed)), nQ, i%2 == 0) {
			t.Errorf("word-boundary batch of %d queries (seed %d) diverged from qat", nQ, seed)
		}
	}
}

// checkEngineMatchesQat runs one random batch of nQ queries through the
// engine and compares every count with qat. With collect on, some queries
// SUM fact.v (and some also group by a dimension), so their sources keep
// rows; each such source must hold exactly one row per counted tuple, and
// its fact vIDs must be the fact rows the query selects.
func checkEngineMatchesQat(t *testing.T, seed int64, rng *rand.Rand, nQ int, collect bool) bool {
	db, dims, subOf := randomSchemaDB(rng)
	qs := make([]*query.Query, nQ)
	for i := range qs {
		qs[i] = randomQueryOn(rng, dims, subOf)
		if collect && rng.Intn(2) == 0 {
			qs[i].Agg = query.Agg{Kind: query.AggSum, Alias: "fact", Col: "v"}
			if rng.Intn(2) == 0 {
				qs[i].Agg.GroupByAlias, qs[i].Agg.GroupByCol = qs[i].Rels[1].Table, "v"
			}
		}
	}
	b, err := query.Compile(qs)
	if err != nil {
		t.Logf("seed %d: compile: %v", seed, err)
		return false
	}
	opt := exec.DefaultOptions()
	opt.VectorSize = 32 + rng.Intn(100)
	opt.CollectRows = collect
	opt.Pruning = rng.Intn(2) == 0
	opt.AdaptiveProjections = rng.Intn(2) == 0
	opt.LocalityRouter = rng.Intn(4) != 0
	s, err := NewSession(b, db, Config{Exec: opt, Workers: 1 + rng.Intn(3)})
	if err != nil {
		t.Logf("seed %d: session: %v", seed, err)
		return false
	}
	res, err := s.Run()
	if err != nil {
		t.Logf("seed %d: run: %v", seed, err)
		return false
	}
	want, _, err := qat.New(db).RunSerial(qs)
	if err != nil {
		t.Logf("seed %d: qat: %v", seed, err)
		return false
	}
	for i := range want {
		if res.Counts[i] != want[i] {
			t.Logf("seed %d (%d queries): query %d: roulette %d, qat %d", seed, nQ, i, res.Counts[i], want[i])
			return false
		}
	}
	for qid, q := range qs {
		if q.Agg.Kind != query.AggSum {
			continue
		}
		src := s.Context().Sources[qid]
		rows, width := src.Rows()
		if int64(len(rows)) != int64(width)*res.Counts[qid] {
			t.Logf("seed %d: query %d: %d row words of width %d for count %d", seed, qid, len(rows), width, res.Counts[qid])
			return false
		}
		factInst, _ := b.InstOfAlias(qid, "fact")
		col := -1
		for c, inst := range src.Insts {
			if inst == factInst {
				col = c
			}
		}
		got := make([]int, 0, res.Counts[qid])
		for r := col; r < len(rows); r += width {
			got = append(got, int(rows[r]))
		}
		slices.Sort(got)
		if exp := factRowsOf(db, q); !slices.Equal(got, exp) {
			t.Logf("seed %d: query %d: routed fact rows %v, want %v", seed, qid, got, exp)
			return false
		}
	}
	return true
}

// factRowsOf lists, in ascending order, the fact rows a randomQueryOn query
// selects. Dimension and sub-dimension keys equal their row index, so each
// fact row determines one row of every relation (found by following the
// key joins), and the query keeps it iff every join and filter holds there.
func factRowsOf(db *storage.Database, q *query.Query) []int {
	var out []int
	for r := 0; r < db.MustTable("fact").NumRows(); r++ {
		row := map[string]int{"fact": r}
		for changed := true; changed; {
			changed = false
			for _, j := range q.Joins {
				if _, done := row[j.RightAlias]; done || j.RightCol != "k" {
					continue
				}
				if lr, ok := row[j.LeftAlias]; ok {
					row[j.RightAlias] = int(db.MustTable(j.LeftAlias).Col(j.LeftCol)[lr])
					changed = true
				}
			}
		}
		ok := true
		for _, j := range q.Joins {
			l := db.MustTable(j.LeftAlias).Col(j.LeftCol)[row[j.LeftAlias]]
			ok = ok && l == db.MustTable(j.RightAlias).Col(j.RightCol)[row[j.RightAlias]]
		}
		for _, f := range q.Filters {
			ok = ok && f.Match(db.MustTable(f.Alias).Col(f.Col)[row[f.Alias]], nil)
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}
