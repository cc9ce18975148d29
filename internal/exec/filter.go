package exec

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/value"
)

// GroupedFilter is a shared selection operator evaluating every query's
// predicates on one (instance, column) at once (§5.1). The optimized path
// precomputes a range lookup table — one query-set mask per value segment —
// so evaluation is a binary search, logarithmic in the query count. The
// table is built by one sweep over the sorted range endpoints. Queries
// without a predicate on the column are unaffected: each stored mask
// already includes their bits.
//
// Typed predicates are normalized at construction: string predicates
// resolve their literals to dictionary codes (each becoming a degenerate
// [c,c] range; literals absent from the dictionary match nothing), IS NOT
// NULL becomes the column's full observed value range, and IS NULL is
// tracked separately. NULL cells (value.NullCode) take the precomputed
// nullMask, so NULL never satisfies a range or string predicate. A query's
// several predicates on the same column combine by conjunction (matching
// SQL's WHERE semantics and the reference oracle); the ranges inside one
// predicate (an IN-list's literals) combine by union.
type GroupedFilter struct {
	Inst query.InstID
	Col  string

	col []int64 // the column data

	// Range table: value v falls in segment i when bounds[i] <= v <
	// bounds[i+1] (the last segment is open-ended); the matching mask is
	// masks[i*mw:(i+1)*mw]. Values below every bound take outMask (no
	// predicate satisfied); NullCode takes nullMask.
	bounds   []int64
	masks    []uint64 // one flat slab, mw words per segment
	mw       int      // words per mask: len(outMask)
	outMask  bitset.Set
	nullMask bitset.Set

	// Naive path inputs: per-query normalized predicate groups.
	groups  []predGroup
	queries bitset.Set
	n       int
}

// filterPred is one normalized predicate: either an IS NULL test or a union
// of inclusive code ranges. An empty range set matches nothing.
type filterPred struct {
	isNull bool
	ranges [][2]int64
}

// predGroup collects one query's predicates on the column; the query's bit
// survives a tuple only when every predicate matches (conjunction).
type predGroup struct {
	qid   int
	preds []filterPred
}

// matches evaluates the group against one cell value.
func (g *predGroup) matches(v int64) bool {
	for i := range g.preds {
		p := &g.preds[i]
		if v == value.NullCode {
			if !p.isNull {
				return false
			}
			continue
		}
		if p.isNull {
			return false
		}
		ok := false
		for _, r := range p.ranges {
			if r[0] <= v && v <= r[1] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// NewGroupedFilter precomputes the range table for one grouped filter.
// Predicate bounds are clamped to the column's observed non-NULL value
// range so that open-ended comparisons (MinInt64/MaxInt64 bounds) cannot
// overflow the boundary arithmetic. dict resolves string predicates and may
// be nil for plain int64 columns.
func NewGroupedFilter(nQueries int, sc *query.SelCol, col []int64, dict *value.Dict) *GroupedFilter {
	f := &GroupedFilter{
		Inst: sc.Inst, Col: sc.Col, col: col,
		queries: sc.Queries, n: nQueries,
	}
	// Observed range over non-NULL cells; an all-NULL (or empty) column
	// keeps the empty range [0,-1], which makes every range predicate empty.
	colMin, colMax := int64(0), int64(-1)
	seen := false
	for _, v := range col {
		if v == value.NullCode {
			continue
		}
		if !seen {
			colMin, colMax, seen = v, v, true
			continue
		}
		if v < colMin {
			colMin = v
		}
		if v > colMax {
			colMax = v
		}
	}

	// Normalize predicates into per-query groups of code-range unions.
	groupOf := make([]int32, nQueries) // qid -> group index + 1
	for _, p := range sc.Preds {
		fp := filterPred{}
		switch p.Kind {
		case query.KindIsNull:
			fp.isNull = true
		case query.KindIsNotNull:
			if seen {
				fp.ranges = [][2]int64{{colMin, colMax}}
			}
		case query.KindStrings:
			if dict != nil {
				for _, s := range p.Strs {
					if c, ok := dict.Lookup(s); ok {
						fp.ranges = append(fp.ranges, [2]int64{c, c})
					}
				}
			}
		default:
			lo, hi := p.Lo, p.Hi
			if lo < colMin {
				lo = colMin
			}
			if hi > colMax {
				hi = colMax
			}
			// Predicates empty after clamping match no row; they contribute
			// no boundary and force the query's bit out of every mask.
			if lo <= hi {
				fp.ranges = [][2]int64{{lo, hi}}
			}
		}
		if groupOf[p.QID] == 0 {
			f.groups = append(f.groups, predGroup{qid: p.QID})
			groupOf[p.QID] = int32(len(f.groups))
		}
		g := &f.groups[groupOf[p.QID]-1]
		g.preds = append(g.preds, fp)
	}

	// outMask: bits of queries with no predicate here stay set.
	f.outMask = bitset.NewFull(nQueries)
	f.outMask.AndNotWith(sc.Queries)

	// nullMask: what a NULL cell keeps. Only queries whose every predicate
	// here is IS NULL survive (plus the untouched outMask bits).
	f.nullMask = f.outMask.Clone()
	for i := range f.groups {
		g := &f.groups[i]
		if g.matches(value.NullCode) {
			f.nullMask.Add(g.qid)
		}
	}

	f.buildTable()
	return f
}

// rangeEvent is one range endpoint of the table sweep: predicate pred's
// range opens (d = +1) or closes (d = -1) at value at.
type rangeEvent struct {
	at   int64
	pred int32
	d    int32
}

// buildTable fills the range table by one sweep over the sorted range
// endpoints: each normalized range [lo, hi] opens at lo and closes at
// hi+1. Per predicate, open counts the ranges containing the sweep
// position; per group, sat counts the predicates with an open range. A
// group matches exactly while sat equals its predicate count, so a query's
// bit toggles only when its group's state flips, and each distinct
// endpoint appends the running mask as its segment's mask. The cost is the
// sort plus linear in the endpoints and the table, instead of re-testing
// every group for every segment. IS NULL predicates and predicates left
// with no range never open, so their groups never match a non-NULL value.
func (f *GroupedFilter) buildTable() {
	nr, np := 0, 0
	for gi := range f.groups {
		for _, p := range f.groups[gi].preds {
			nr += len(p.ranges)
			np++
		}
	}
	evs := make([]rangeEvent, 0, 2*nr)
	predGroup := make([]int32, 0, np) // predicate index -> group index
	need := make([]int32, len(f.groups))
	for gi := range f.groups {
		need[gi] = int32(len(f.groups[gi].preds))
		for _, p := range f.groups[gi].preds {
			pi := int32(len(predGroup))
			predGroup = append(predGroup, int32(gi))
			for _, r := range p.ranges {
				evs = append(evs, rangeEvent{r[0], pi, 1})
				if r[1] < math.MaxInt64 { // a range up to MaxInt64 never closes
					evs = append(evs, rangeEvent{r[1] + 1, pi, -1})
				}
			}
		}
	}
	slices.SortFunc(evs, func(a, b rangeEvent) int { return cmp.Compare(a.at, b.at) })
	nb := 0 // distinct endpoints: the table's segment count
	for i := range evs {
		if i == 0 || evs[i].at != evs[i-1].at {
			nb++
		}
	}
	f.mw = len(f.outMask)
	f.bounds = make([]int64, 0, nb)
	f.masks = make([]uint64, 0, nb*f.mw)
	open := make([]int32, len(predGroup))
	sat := make([]int32, len(f.groups))
	run := f.outMask.Clone()
	for i := 0; i < len(evs); {
		at := evs[i].at
		for ; i < len(evs) && evs[i].at == at; i++ {
			e := evs[i]
			was := open[e.pred] > 0
			open[e.pred] += e.d
			if open[e.pred] > 0 == was {
				continue
			}
			gi := predGroup[e.pred]
			matched := sat[gi] == need[gi]
			if was {
				sat[gi]--
			} else {
				sat[gi]++
			}
			if sat[gi] == need[gi] != matched {
				qid := f.groups[gi].qid
				run[qid/64] ^= 1 << (qid % 64)
			}
		}
		f.bounds = append(f.bounds, at)
		f.masks = append(f.masks, run...)
	}
}

// maskFor returns the query-set mask for value v via the range table.
func (f *GroupedFilter) maskFor(v int64) bitset.Set {
	if v == value.NullCode {
		return f.nullMask
	}
	// Rightmost segment start <= v.
	i := sort.Search(len(f.bounds), func(i int) bool { return f.bounds[i] > v }) - 1
	if i < 0 {
		return f.outMask
	}
	return f.masks[i*f.mw : (i+1)*f.mw : (i+1)*f.mw]
}

// naiveMask computes the mask by scanning every predicate (the unoptimized
// baseline toggled off by Options.GroupedFilters; Fig. 18's ablation).
func (f *GroupedFilter) naiveMask(v int64, scratch bitset.Set) bitset.Set {
	scratch = f.outMask.CopyInto(scratch)
	for i := range f.groups {
		g := &f.groups[i]
		if g.matches(v) {
			scratch.Add(g.qid)
		}
	}
	return scratch
}

// Apply filters the query-set words of a tuple vector in place: for each
// tuple, its query set is intersected with the mask of its column value.
// qsets is the flat n×qw word slab; vids addresses the column. It returns
// the number of tuples left with a non-empty query set (tuples themselves
// are compacted by the caller).
func (f *GroupedFilter) Apply(grouped bool, vids []int32, qsets []uint64, qw int) {
	if grouped {
		if qw == 1 {
			// Fast path for single-word query sets.
			for i, vid := range vids {
				m := f.maskFor(f.col[vid])
				var mw uint64
				if len(m) > 0 {
					mw = m[0]
				}
				qsets[i] &= mw
			}
			return
		}
		// Every mask spans the filter's query capacity — the batch's, which
		// sets qw — so it is already qw words wide (qsets.go contract).
		for i, vid := range vids {
			b := i * qw
			andInPlace(qsets[b:b+qw:b+qw], f.maskFor(f.col[vid]))
		}
		return
	}
	scratch := bitset.New(f.n)
	for i, vid := range vids {
		scratch = f.naiveMask(f.col[vid], scratch)
		b := i * qw
		andInPlace(qsets[b:b+qw:b+qw], scratch)
	}
}
