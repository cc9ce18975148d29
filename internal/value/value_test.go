package value

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// TestNullCodeSentinel pins the NULL sentinel: it is MinInt64, outside every
// dictionary's dense non-negative code space, and decodes to "".
func TestNullCodeSentinel(t *testing.T) {
	if NullCode != math.MinInt64 {
		t.Fatalf("NullCode = %d, want MinInt64", NullCode)
	}
	d := NewDict()
	for i := 0; i < 100; i++ {
		if c := d.Code(fmt.Sprint(i)); c < 0 || c == NullCode {
			t.Fatalf("Code(%d) = %d, want a non-negative code", i, c)
		}
	}
	if got := d.Value(NullCode); got != "" {
		t.Fatalf("Value(NullCode) = %q, want \"\"", got)
	}
}

// TestDictCodeLookup covers interning and lookup: codes are dense from 0 in
// first-seen order, re-interning returns the same code, Lookup never
// assigns, and Value/Values decode.
func TestDictCodeLookup(t *testing.T) {
	d := NewDict()
	words := []string{"pear", "apple", "fig", "apple", "", "pear"}
	want := []int64{0, 1, 2, 1, 3, 0}
	for i, w := range words {
		if c := d.Code(w); c != want[i] {
			t.Fatalf("Code(%q) = %d, want %d", w, c, want[i])
		}
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	if c, ok := d.Lookup("fig"); !ok || c != 2 {
		t.Fatalf("Lookup(fig) = %d, %v", c, ok)
	}
	if _, ok := d.Lookup("kiwi"); ok {
		t.Fatal("Lookup(kiwi) found an absent string")
	}
	if d.Len() != 4 {
		t.Fatalf("Lookup grew the dictionary to %d", d.Len())
	}
	for c, w := range []string{"pear", "apple", "fig", ""} {
		if got := d.Value(int64(c)); got != w {
			t.Fatalf("Value(%d) = %q, want %q", c, got, w)
		}
	}
	for _, c := range []int64{-1, 4, math.MaxInt64} {
		if got := d.Value(c); got != "" {
			t.Fatalf("Value(%d) = %q, want \"\" for an out-of-range code", c, got)
		}
	}
	vals := d.Values()
	vals[0] = "changed"
	if d.Value(0) != "pear" {
		t.Fatal("Values returned the dictionary's own table, not a copy")
	}
}

// TestDictMerge checks dictionary unification: the remap sends each of
// other's codes to the code of the same string in d, d gains exactly the
// strings it lacked, and merging a dictionary into itself is the identity.
func TestDictMerge(t *testing.T) {
	d, other := NewDict(), NewDict()
	for _, w := range []string{"a", "b", "c"} {
		d.Code(w)
	}
	for _, w := range []string{"c", "x", "a", "y"} {
		other.Code(w)
	}
	remap := d.Merge(other)
	if len(remap) != other.Len() {
		t.Fatalf("remap has %d entries, want %d", len(remap), other.Len())
	}
	for oc, w := range other.Values() {
		if got := d.Value(remap[oc]); got != w {
			t.Fatalf("remap[%d] = %d decodes to %q, want %q", oc, remap[oc], got, w)
		}
	}
	if d.Len() != 5 {
		t.Fatalf("merged Len = %d, want 5 (a b c x y)", d.Len())
	}
	if c, _ := d.Lookup("a"); c != 0 {
		t.Fatalf("merge moved an existing code: a = %d", c)
	}
	self := d.Merge(d)
	if !reflect.DeepEqual(self, []int64{0, 1, 2, 3, 4}) {
		t.Fatalf("self-merge remap = %v, want the identity", self)
	}
	if d.Len() != 5 {
		t.Fatalf("self-merge grew the dictionary to %d", d.Len())
	}
}

// TestSortedRemap checks that re-sorting makes code order equal string
// order and that the returned table rewrites old codes to the same strings.
func TestSortedRemap(t *testing.T) {
	d := NewDict()
	words := []string{"delta", "alpha", "echo", "charlie", "bravo", ""}
	old := make(map[string]int64, len(words))
	for _, w := range words {
		old[w] = d.Code(w)
	}
	remap := d.SortedRemap()
	vals := d.Values()
	if !sort.StringsAreSorted(vals) {
		t.Fatalf("values after SortedRemap = %q, not sorted", vals)
	}
	for w, oc := range old {
		nc := remap[oc]
		if d.Value(nc) != w {
			t.Fatalf("remap[%d] = %d decodes to %q, want %q", oc, nc, d.Value(nc), w)
		}
		if c, ok := d.Lookup(w); !ok || c != nc {
			t.Fatalf("Lookup(%q) = %d, %v after remap, want %d", w, c, ok, nc)
		}
	}
	if c := d.Code("zulu"); c != int64(len(words)) {
		t.Fatalf("Code after SortedRemap = %d, want the next dense code %d", c, len(words))
	}
}

// TestErrTypeMismatch checks that wrapped mismatch errors match with
// errors.Is and that ColType names itself in messages.
func TestErrTypeMismatch(t *testing.T) {
	err := fmt.Errorf("filter on %s column %q: %w", String, "c", ErrTypeMismatch)
	if !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("errors.Is(%v, ErrTypeMismatch) = false", err)
	}
	if errors.Is(errors.New("type mismatch"), ErrTypeMismatch) {
		t.Fatal("an unrelated error with the same text matched ErrTypeMismatch")
	}
	for ct, want := range map[ColType]string{Int64: "int64", String: "string", ColType(9): "ColType(9)"} {
		if got := ct.String(); got != want {
			t.Errorf("ColType(%d).String() = %q, want %q", uint8(ct), got, want)
		}
	}
}

// TestDictConcurrentReaders runs readers against one interning writer, the
// loader access pattern the Dict contract allows. Under -race it checks
// the locking; in any mode every code a reader sees must decode back.
func TestDictConcurrentReaders(t *testing.T) {
	d := NewDict()
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			d.Code(fmt.Sprintf("w%d", i))
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				w := fmt.Sprintf("w%d", i)
				if c, ok := d.Lookup(w); ok && d.Value(c) != w {
					t.Errorf("Lookup(%q) = %d decodes to %q", w, c, d.Value(c))
					return
				}
				_ = d.Len()
			}
		}()
	}
	wg.Wait()
	if d.Len() != n {
		t.Fatalf("Len = %d, want %d", d.Len(), n)
	}
}
