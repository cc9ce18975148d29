package stem

import (
	"slices"
	"sync/atomic"
)

// This file holds the vector kernels: whole-episode-vector variants of
// Insert, Probe and SemiJoinQueries. The scalar paths pay one atomic
// counter bump plus one CAS per key per tuple on insert, and a per-entry
// version lookup on probe; the kernels amortize both across the vector
// (§5.2 "Scalable versioning"):
//
//   - InsertVec reserves the whole vector's index range with a single
//     count.Add(n), bulk-writes the entry columns chunk segment by chunk
//     segment, pre-links the intra-batch hash chains in caller-owned
//     scratch, and splices each *distinct* bucket with one CAS — up to
//     len(vec)×keys CASes collapse into ~distinct-buckets CASes.
//   - ProbeVec resolves the key column once (the scalar path pays a map
//     lookup per call), batch-hashes the key block and preloads bucket
//     heads before walking chains, and consults the publication watermark:
//     entries whose slot is under the watermark skip the per-entry
//     timestamp load entirely. It takes the caller's per-key query sets and
//     writes each match's intersection straight into the caller's output
//     slab, so no matched query set is staged or copied twice.
//   - SemiJoinVec is the batched symmetric-join-pruning primitive with the
//     same watermark short-circuit; it prunes the caller's query sets in
//     place.
//
// Both query-set kernels follow one width contract: the caller's sets are
// qw words per key, whatever the STeM's own width. Words the STeM does not
// store read as zero, and stored words past qw are ignored.
//
// Memory-ordering argument (same as the scalar Insert): every entry write
// — vIDs, slots, keys, query sets, intra-batch next links — happens before
// the bucket CAS that makes the batch reachable, and probes load the bucket
// head with acquire semantics, so a reachable entry is always fully
// written. Entries stay invisible to result probes until their slot is
// published regardless: a probe that finds the slot unpublished rejects it
// after sealing it (Versions.visibleAt), which pins the slot's eventual
// timestamp above the probe's, so the rejection cannot race with an
// in-flight publish.
//
// Query-set words are stored and loaded with sync/atomic throughout: the
// concurrent GC sweeper clears retired bits in place while these kernels
// run, and mixed plain/atomic access on the same words would both race and
// tear under the race detector.

// VecHit is one ProbeVec result: input position In of the probed key batch
// matched entry VID. It holds no pointer, so hit buffers cost the garbage
// collector nothing to scan and appends pay no write barrier.
type VecHit struct {
	In  int32
	VID int32
}

// InsertScratch is the worker-local scratch for InsertVec's intra-batch
// chain building: an epoch-stamped open-addressing table deduplicating
// bucket indices, and the per-distinct-bucket chain heads and tails. The
// zero value is ready to use; buffers grow to the largest batch seen and
// are reused, so steady-state inserts do not allocate.
type InsertScratch struct {
	table []uint64 // epoch<<32 | (distinct index + 1); epoch mismatch = empty
	epoch uint32
	mask  uint32

	dbuck []int32 // distinct bucket index
	dhead []int32 // entry ref of the batch chain's first entry
	dtail []int32 // entry ref of the batch chain's last entry
	nd    int
}

// begin readies the scratch for a batch of n tuples: the dedup table holds
// at least 2n cells (power of two) and a bumped epoch empties it without
// clearing.
func (sc *InsertScratch) begin(n int) {
	want := 1
	for want < 2*n {
		want <<= 1
	}
	if want < 64 {
		want = 64
	}
	if len(sc.table) < want {
		sc.table = make([]uint64, want)
		sc.dbuck = make([]int32, 0, n)
		sc.dhead = make([]int32, 0, n)
		sc.dtail = make([]int32, 0, n)
		sc.epoch = 0
	}
	sc.mask = uint32(len(sc.table) - 1)
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale cells could alias; clear once
		for i := range sc.table {
			sc.table[i] = 0
		}
		sc.epoch = 1
	}
	sc.dbuck = sc.dbuck[:0]
	sc.dhead = sc.dhead[:0]
	sc.dtail = sc.dtail[:0]
	sc.nd = 0
}

// lookupOrAdd returns the distinct-list index of bucket b, adding it on
// first sight. Linear probing over the epoch-stamped table.
func (sc *InsertScratch) lookupOrAdd(b int32) int {
	tag := uint64(sc.epoch) << 32
	for cell := uint32(b) & sc.mask; ; cell = (cell + 1) & sc.mask {
		v := sc.table[cell]
		if v>>32 != uint64(sc.epoch) {
			li := sc.nd
			sc.table[cell] = tag | uint64(uint32(li+1))
			sc.dbuck = append(sc.dbuck, b)
			sc.dhead = append(sc.dhead, 0)
			sc.dtail = append(sc.dtail, 0)
			sc.nd++
			return li
		}
		li := int(uint32(v)) - 1
		if sc.dbuck[li] == b {
			return li
		}
	}
}

// InsertVec adds len(vids) tuples in bulk, all stamped with version slot
// slot. keyCols holds one key column per indexed column (KeyCols order),
// each of length len(vids); qsets is the tuples' query-set slab with qw
// words per tuple. keyCols may carry extra trailing columns beyond the
// STeM's current index count (a worker acting on a newer context view than
// the STeM's pending AddIndex); the extras are ignored. The tuples become
// visible to probes once the slot is published. sc must not be shared
// between concurrent callers; pass a fresh or worker-owned scratch.
//
// Result-equivalent to calling Insert per tuple, except that entries of
// the same batch hitting the same bucket are chained in batch order rather
// than last-in-first-out; probes see the same match *sets* either way.
func (s *STeM) InsertVec(vids []int32, keyCols [][]int64, qsets []uint64, qw int, slot Slot, sc *InsertScratch) {
	n := len(vids)
	if n == 0 {
		return
	}
	st := s.state.Load()
	base := s.count.Add(int64(n)) - int64(n)
	// Materialize every chunk the batch touches, then bulk-write the entry
	// columns one chunk segment at a time.
	s.chunkFor(st, base+int64(n)-1)
	chunks := *st.chunks.Load()
	for i0 := 0; i0 < n; {
		idx := base + int64(i0)
		c := chunks[idx>>chunkBits]
		off := int(idx) & chunkMask
		seg := chunkSize - off
		if seg > n-i0 {
			seg = n - i0
		}
		copy(c.vids[off:off+seg], vids[i0:i0+seg])
		for j := 0; j < seg; j++ {
			c.slots[off+j] = slot
		}
		for j := 0; j < seg; j++ {
			src := qsets[(i0+j)*qw : (i0+j+1)*qw]
			dst := c.qsets[(off+j)*s.qw : (off+j+1)*s.qw]
			for w := range dst {
				var v uint64
				if w < len(src) {
					v = src[w]
				}
				atomic.StoreUint64(&dst[w], v)
			}
		}
		for k := range st.keyCols {
			copy(c.keys[k][off:off+seg], keyCols[k][i0:i0+seg])
		}
		i0 += seg
	}
	for ki := range st.keyCols {
		s.spliceBatch(st, ki, base, n, keyCols[ki], sc, chunks)
	}
}

// spliceBatch links the batch's entries into index ki's hash chains: one
// pass groups the batch per distinct bucket (chaining group members through
// the entries' own next links, which nothing can read yet), then each
// distinct bucket is spliced in front of its current chain with a single
// CAS.
func (s *STeM) spliceBatch(st *stemState, ki int, base int64, n int, keys []int64, sc *InsertScratch, chunks []*chunk) {
	sc.begin(n)
	buckets := st.buckets[ki]
	shift := st.shift[ki]
	for i := 0; i < n; i++ {
		b := int32(hash64(keys[i]) >> shift)
		li := sc.lookupOrAdd(b)
		ref := int32(base) + int32(i) + 1
		if sc.dhead[li] == 0 {
			sc.dhead[li] = ref
		} else {
			prev := int(sc.dtail[li]) - 1
			chunks[prev>>chunkBits].next[ki][prev&chunkMask] = ref
		}
		sc.dtail[li] = ref
	}
	for li := 0; li < sc.nd; li++ {
		b := &buckets[sc.dbuck[li]]
		tail := int(sc.dtail[li]) - 1
		tnext := &chunks[tail>>chunkBits].next[ki][tail&chunkMask]
		for {
			head := b.Load()
			*tnext = head
			if b.CompareAndSwap(head, sc.dhead[li]) {
				break
			}
		}
	}
}

// probeBlock sizes ProbeVec's bucket-head preload: heads for a block of
// keys are hashed and loaded before any chain is walked, so the loads'
// cache misses overlap instead of serializing with the walks.
const probeBlock = 128

// ProbeVec probes every key of keys on column col and intersects query sets
// in the same pass. tqs holds the probing tuples' query sets, qw words per
// key (tqs[i*qw:(i+1)*qw] belongs to keys[i]). For each visible entry
// matching keys[i], the kernel writes tqs[i] ∧ entry set (qw words) to the
// end of out and appends VecHit{i, vid} to hits; a match whose
// intersection is empty is dropped before either is appended. So the k-th
// appended hit's set is the k-th appended qw-word group of out. Both slices
// are returned. They are first grown to hold one hit per key, which is all
// a unique-key (dimension) probe can produce, and grow further only for
// larger fan-outs; callers reuse them across episodes so the steady state
// does not allocate. Hits come out in input order, and in chain order per
// key.
//
// Visibility follows Probe's contract — published timestamp strictly older
// than probeTS — with one amortization: wm must be a watermark value read
// *before* probeTS was drawn (Versions.Watermark, or the pair returned by
// PublishClocked), which guarantees every slot under wm carries a timestamp
// older than probeTS, so those entries (the stable majority in a long-lived
// session) skip the per-entry timestamp load entirely. Pass wm 0 to
// disable the short-circuit.
func (s *STeM) ProbeVec(hits []VecHit, out []uint64, col string, keys []int64, tqs []uint64, qw int, probeTS int64, wm Slot) ([]VecHit, []uint64) {
	// The state is loaded once per call: a structural swap mid-call leaves
	// this probe on the frozen old state, which is safe — any insert the
	// probe is required to see (timestamp older than probeTS) happened
	// before this call's state load (the inserter drew its timestamp before
	// our publish raised maxPub above it), so it is in the loaded state.
	st := s.state.Load()
	ki, ok := st.colIdx[col]
	if !ok {
		return hits, out
	}
	hits, out = slices.Grow(hits, len(keys)), slices.Grow(out, len(keys)*qw)
	buckets := st.buckets[ki]
	shift := st.shift[ki]
	sqw := s.qw
	uw := min(qw, sqw) // words read from entries; out words past uw are zero
	var heads [probeBlock]int32
	var eKey [probeBlock]int64
	var eNext [probeBlock]int32
	var eSlot [probeBlock]Slot
	var eVID [probeBlock]int32
	for i0 := 0; i0 < len(keys); i0 += probeBlock {
		m := min(len(keys)-i0, probeBlock)
		for j := 0; j < m; j++ {
			if keys[i0+j] == NullKey {
				heads[j] = 0 // NULL probe keys match nothing, see NullKey
				continue
			}
			heads[j] = buckets[hash64(keys[i0+j])>>shift].Load()
		}
		// Chunk snapshot after the block's head loads (scalar Probe has the
		// ordering argument): chunks reachable from these heads were all
		// appended before the heads were CASed, so this snapshot covers
		// every chain the block walks even with concurrent inserts growing
		// the slab.
		chunks := *st.chunks.Load()
		// Stage the head entries' fields in a branch-light pass: the loads
		// are independent across keys, so their cache misses overlap instead
		// of serializing behind the chain walk's branches. Unique-key
		// (dimension) probes resolve entirely from this stage.
		for j := 0; j < m; j++ {
			ref := heads[j]
			if ref == 0 {
				continue
			}
			idx := int(ref) - 1
			c := chunks[idx>>chunkBits]
			off := idx & chunkMask
			eKey[j] = c.keys[ki][off]
			eNext[j] = c.next[ki][off]
			eSlot[j] = c.slots[off]
			eVID[j] = c.vids[off]
		}
		for j := 0; j < m; j++ {
			ref := heads[j]
			if ref == 0 {
				continue
			}
			i := i0 + j
			key := keys[i]
			t := tqs[i*qw : i*qw+uw : i*qw+uw]
			idx := int(ref) - 1
			match, slot, vid, next := eKey[j] == key, eSlot[j], eVID[j], eNext[j]
			for {
				if match && (slot < wm || s.versions.visibleAt(slot, probeTS)) {
					n := len(out)
					if cap(out)-n < qw {
						out = slices.Grow(out, qw)
					}
					o := out[n : n+len(t) : n+len(t)]
					es := chunks[idx>>chunkBits].qsets[(idx&chunkMask)*sqw:]
					es = es[:len(t):len(t)]
					var acc uint64
					for w := range t {
						x := t[w] & atomic.LoadUint64(&es[w])
						o[w] = x
						acc |= x
					}
					if acc != 0 {
						out = out[:n+qw]
						if uw < qw {
							clear(out[n+uw:])
						}
						hits = append(hits, VecHit{In: int32(i), VID: vid})
					}
				}
				if next == 0 {
					break
				}
				idx = int(next) - 1
				c := chunks[idx>>chunkBits]
				off := idx & chunkMask
				next = c.next[ki][off]
				if match = c.keys[ki][off] == key; match {
					slot, vid = c.slots[off], c.vids[off]
				}
			}
		}
	}
	return hits, out
}

// SemiJoinVec prunes query sets in place (the batched SemiJoinQueries used
// by symmetric join pruning): tuple i's set q, qw words at qsets[i*qw:],
// becomes q ∧ (keep ∨ U), where U is the union of the query sets of every
// published entry matching keys[i] on col. keep (qw words) names the bits
// pruning must leave alone; acc is qw words of caller scratch. Publication
// needs no timestamp ordering here, so the watermark is read internally:
// entries under it skip the version lookup.
func (s *STeM) SemiJoinVec(qsets []uint64, qw int, keep, acc []uint64, col string, keys []int64) {
	keep, acc = keep[:qw:qw], acc[:qw:qw]
	st := s.state.Load()
	ki, ok := st.colIdx[col]
	if !ok {
		// No entry can match: only the kept bits survive.
		for b := 0; b < len(keys)*qw; b += qw {
			q := qsets[b : b+qw : b+qw]
			for w := range q {
				q[w] &= keep[w]
			}
		}
		return
	}
	wm := s.versions.Watermark()
	buckets := st.buckets[ki]
	shift := st.shift[ki]
	sqw := s.qw
	uw := min(qw, sqw)
	var heads [probeBlock]int32
	for i0 := 0; i0 < len(keys); i0 += probeBlock {
		m := min(len(keys)-i0, probeBlock)
		for j := 0; j < m; j++ {
			if keys[i0+j] == NullKey {
				heads[j] = 0 // NULL probe keys match nothing, see NullKey
				continue
			}
			heads[j] = buckets[hash64(keys[i0+j])>>shift].Load()
		}
		// Chunk snapshot after the head loads; see ProbeVec.
		chunks := *st.chunks.Load()
		for j := 0; j < m; j++ {
			i := i0 + j
			q := qsets[i*qw : i*qw+qw : i*qw+qw]
			ref := heads[j]
			if ref == 0 {
				for w := range q {
					q[w] &= keep[w]
				}
				continue
			}
			// acc collects q's surviving bits: the kept ones up front, then
			// each matching entry's share of q.
			for w := range acc {
				acc[w] = q[w] & keep[w]
			}
			key := keys[i]
			qu, au := q[:uw:uw], acc[:uw:uw]
			for ref != 0 {
				idx := int(ref) - 1
				c := chunks[idx>>chunkBits]
				off := idx & chunkMask
				if c.keys[ki][off] == key &&
					(c.slots[off] < wm || s.versions.tryGet(c.slots[off]) != 0) {
					es := c.qsets[off*sqw:]
					es = es[:uw:uw]
					for w := range au {
						au[w] |= qu[w] & atomic.LoadUint64(&es[w])
					}
				}
				ref = c.next[ki][off]
			}
			copy(q, acc)
		}
	}
}
