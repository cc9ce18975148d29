package main

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/roulette-db/roulette"
	"github.com/roulette-db/roulette/internal/job"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/tpcds"
	"github.com/roulette-db/roulette/internal/workload"
)

// compiledForm reads the query a public roulette.Query holds. The public type
// keeps it private, so the test reaches it by reflection.
func compiledForm(t *testing.T, p *roulette.Query) *query.Query {
	t.Helper()
	f := reflect.ValueOf(p).Elem().FieldByName("q")
	if !f.IsValid() || f.Type() != reflect.TypeOf(query.Query{}) {
		t.Fatalf("roulette.Query no longer holds a query.Query in field q")
	}
	return (*query.Query)(unsafe.Pointer(f.UnsafeAddr()))
}

// TestPublicQueryPreservesQueries checks that every generator's queries
// survive the trip through the public query API: same constants-included
// signature, and the same count from ExecuteBatch as the reference engine
// gives the source query.
func TestPublicQueryPreservesQueries(t *testing.T) {
	cases := []struct {
		name string
		db   *storage.Database
		pool []*query.Query
	}{
		{"tpcds", tpcds.Generate(0.1, 3), tpcdsPool(3)[:24]},
		{"strings", workload.StringsDB(0.05, 3), stringsPool(3)[:24]},
		{"job", job.GenerateScaled(0.2, 3), job.Queries(24, 3)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pub, err := publicQueries(c.pool)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pub {
				if got, want := query.QuerySig(compiledForm(t, p)), query.QuerySig(c.pool[i]); got != want {
					t.Errorf("query %d (%s): signature %x after translation, %x before", i, c.pool[i].Tag, got, want)
				}
			}
			ref, err := referenceCounts(c.db, c.pool)
			if err != nil {
				t.Fatal(err)
			}
			res, err := roulette.NewEngineOn(c.db).ExecuteBatch(pub, &roulette.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for i := range pub {
				qr := res.Queries[i]
				if qr.Aborted || qr.Count != ref[i] {
					t.Errorf("query %d (%s): count %d (aborted %v), reference %d", i, c.pool[i].Tag, qr.Count, qr.Aborted, ref[i])
				}
				if c.pool[i].Agg.GroupByAlias != "" && groupSum(qr.Groups) != ref[i] {
					t.Errorf("query %d (%s): groups sum to %d, reference %d", i, c.pool[i].Tag, groupSum(qr.Groups), ref[i])
				}
			}
		})
	}
}
