package exec

// Fixed-width query-set word kernels for batches wider than one word
// (qw > 1). Every hot loop that walks a tuple's query set word by word goes
// through these helpers, under one contract (DESIGN.md §8.2):
//
//   - Every slice a kernel touches is exactly the tuple width long. Masks
//     narrower than qw (a node's bitset.Set may be shorter than the batch's
//     word count) are padded once per operator with padMask into a worker
//     buffer, never per tuple or per word.
//   - Callers reslice each tuple's words with a full-slice expression
//     (qs[b:b+qw:b+qw]); the kernels reslice their other operands to the
//     first operand's length, so the compiler proves every index in range
//     and the loops carry no bounds checks.
//   - Emptiness is an OR-accumulation (acc |= x) tested once after the
//     loop, not a per-word branch.
//
// The scalar qw == 1 paths that routeSel, compact and the grouped filters
// already had are kept as they were; no new one-word path is added. The
// probe has one path for every width: its gather loop runs andWords and
// the STeM kernel (stem.ProbeVec) writes the intersected sets.

// padMask copies mask into dst, zero-filling the words past len(mask); dst
// keeps its length (the tuple width).
func padMask(dst, mask []uint64) []uint64 {
	n := copy(dst, mask)
	clear(dst[n:])
	return dst
}

// andWords writes dst = a ∧ m word by word and reports whether the result
// is non-empty. a and m must hold at least len(dst) words.
func andWords(dst, a, m []uint64) bool {
	a, m = a[:len(dst)], m[:len(dst)]
	var acc uint64
	for wd := range dst {
		x := a[wd] & m[wd]
		dst[wd] = x
		acc |= x
	}
	return acc != 0
}

// andInPlace intersects q with m in place; m must hold at least len(q)
// words.
func andInPlace(q, m []uint64) {
	m = m[:len(q)]
	for wd := range q {
		q[wd] &= m[wd]
	}
}

// anyWords reports whether any word of q is non-zero.
func anyWords(q []uint64) bool {
	var acc uint64
	for _, x := range q {
		acc |= x
	}
	return acc != 0
}

// growWords returns s resliced to n words for the caller to overwrite,
// reallocating (without preserving contents) only when its capacity is
// short; arena buffers reach their steady-state capacity within a few
// episodes.
func growWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		s = make([]uint64, n)
	}
	return s[:n]
}
