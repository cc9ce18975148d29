package stem

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/roulette-db/roulette/internal/bitset"
)

// canonScalar is the fused-probe oracle: for every scalar Probe match of
// keys[in], it intersects the match's query set with the probing set
// tqs[in] (qw words; STeM words past qw ignored, missing ones zero), drops
// empty intersections, and renders the rest as a sorted multiset of
// "in|vid|set" strings, the common currency for equivalence checks. Batch
// chains order same-bucket entries differently than scalar LIFO chains, so
// only the match *sets* are comparable.
func canonScalar(s *STeM, col string, keys []int64, tqs []uint64, qw int, ts int64) []string {
	var out []string
	var dst []Match
	x := make([]uint64, qw)
	for in, k := range keys {
		dst = s.Probe(dst[:0], col, k, ts)
		for _, m := range dst {
			var acc uint64
			for w := range x {
				x[w] = 0
				if w < len(m.QSet) {
					x[w] = m.QSet[w] & tqs[in*qw+w]
				}
				acc |= x[w]
			}
			if acc != 0 {
				out = append(out, fmt.Sprintf("%d|%d|%v", in, m.VID, x))
			}
		}
	}
	sort.Strings(out)
	return out
}

// fullSets returns n probing query sets of qw words with every bit set.
func fullSets(n, qw int) []uint64 {
	tqs := make([]uint64, n*qw)
	for i := range tqs {
		tqs[i] = ^uint64(0)
	}
	return tqs
}

// randSets returns n probing query sets of qw words, each bit set with
// probability 1/2.
func randSets(rng *rand.Rand, n, qw int) []uint64 {
	tqs := make([]uint64, n*qw)
	for i := range tqs {
		tqs[i] = rng.Uint64()
	}
	return tqs
}

// probeVec is the test-side one-shot ProbeVec wrapper (fresh buffers each
// call; production callers reuse worker arenas).
func probeVec(s *STeM, col string, keys []int64, tqs []uint64, qw int, ts int64, wm Slot) ([]VecHit, []uint64) {
	return s.ProbeVec(nil, nil, col, keys, tqs, qw, ts, wm)
}

// probeVecCount returns the number of ProbeVec hits of probing sets with
// every bit set.
func probeVecCount(s *STeM, col string, keys []int64, ts int64, wm Slot) int {
	hits, _ := probeVec(s, col, keys, fullSets(len(keys), s.qw), s.qw, ts, wm)
	return len(hits)
}

// dirty fills a reused output slab up to its capacity with set bits, so a
// kernel that leaves a word unwritten shows.
func dirty(sets []uint64) {
	sets = sets[:cap(sets)]
	for i := range sets {
		sets[i] = ^uint64(0)
	}
}

// canonProbe probes with fresh buffers and renders the output.
func canonProbe(s *STeM, col string, keys []int64, tqs []uint64, qw int, ts int64, wm Slot) []string {
	hits, sets := probeVec(s, col, keys, tqs, qw, ts, wm)
	return canonVec(hits, sets, qw)
}

// canonVec renders ProbeVec output like canonScalar; an output slab not
// exactly qw words per hit renders as a marker that matches no oracle.
func canonVec(hits []VecHit, sets []uint64, qw int) []string {
	if len(sets) != len(hits)*qw {
		return []string{fmt.Sprintf("slab has %d words for %d hits × %d", len(sets), len(hits), qw)}
	}
	var out []string
	for k, h := range hits {
		out = append(out, fmt.Sprintf("%d|%d|%v", h.In, h.VID, sets[k*qw:(k+1)*qw]))
	}
	sort.Strings(out)
	return out
}

// TestQuickVecScalarEquivalence is the randomized equivalence property: a
// STeM built with per-tuple Insert and one built with InsertVec (random
// batch sizes, random key skew, random query-set width) must agree on every
// probe, whether probed scalar or vectorized, with or without the watermark
// short-circuit, and on every semi-join. The vector kernels run at a batch
// width one word narrower than, equal to or wider than the STeM's, with
// random probing sets and random kept masks.
func TestQuickVecScalarEquivalence(t *testing.T) {
	f := func(seed int64, skewRaw, qcapRaw uint8, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%1500 + 1
		domain := int64(1) << (uint(skewRaw) % 8) // 1..128 distinct keys
		qcap := int(qcapRaw)%100 + 1              // crosses the 64-query word boundary

		vA := NewVersions()
		vB := NewVersions()
		sA := New(vA, []string{"a", "b"}, qcap, n) // scalar-built
		sB := New(vB, []string{"a", "b"}, qcap, n) // vector-built
		qw := sA.qw

		vids := make([]int32, n)
		ka := make([]int64, n)
		kb := make([]int64, n)
		qsets := make([]uint64, n*qw)
		for i := range vids {
			vids[i] = int32(i)
			ka[i] = rng.Int63n(domain)
			kb[i] = rng.Int63n(domain)
			qsets[i*qw+rng.Intn(qw)] = 1 << uint(rng.Intn(64))
		}

		// Random batch split; one slot per batch, published in order so both
		// sides end fully published.
		var sc InsertScratch
		slot := Slot(0)
		for i0 := 0; i0 < n; {
			bn := 1 + rng.Intn(200)
			if i0+bn > n {
				bn = n - i0
			}
			for j := i0; j < i0+bn; j++ {
				sA.Insert(vids[j], []int64{ka[j], kb[j]}, bitset.Set(qsets[j*qw:(j+1)*qw]), slot)
			}
			vA.Publish(slot)
			sB.InsertVec(vids[i0:i0+bn], [][]int64{ka[i0 : i0+bn], kb[i0 : i0+bn]}, qsets[i0*qw:(i0+bn)*qw], qw, slot, &sc)
			vB.Publish(slot)
			slot++
			i0 += bn
		}

		probeKeys := make([]int64, 0, domain+1)
		for k := int64(0); k <= domain; k++ { // domain itself = guaranteed miss
			probeKeys = append(probeKeys, k)
		}
		bw := max(qw+rng.Intn(3)-1, 1) // batch width: narrower, equal or wider
		masks := map[string][]uint64{
			"full":   fullSets(len(probeKeys), bw),
			"random": randSets(rng, len(probeKeys), bw),
		}
		for _, col := range []string{"a", "b"} {
			wmA, wmB := vA.Watermark(), vB.Watermark()
			tsA, tsB := vA.Now(), vB.Now()
			for name, tqs := range masks {
				want := canonScalar(sA, col, probeKeys, tqs, bw, tsA)
				if got := canonScalar(sB, col, probeKeys, tqs, bw, tsB); !reflect.DeepEqual(got, want) {
					t.Logf("col %s %s masks: scalar probe of vector-built STeM diverged", col, name)
					return false
				}
				if got := canonProbe(sB, col, probeKeys, tqs, bw, tsB, wmB); !reflect.DeepEqual(got, want) {
					t.Logf("col %s %s masks, width %d/%d: ProbeVec diverged (wm=%d)", col, name, bw, qw, wmB)
					return false
				}
				if got := canonProbe(sB, col, probeKeys, tqs, bw, tsB, 0); !reflect.DeepEqual(got, want) {
					t.Logf("col %s %s masks: ProbeVec diverged with watermark disabled", col, name)
					return false
				}
				if got := canonProbe(sA, col, probeKeys, tqs, bw, tsA, wmA); !reflect.DeepEqual(got, want) {
					t.Logf("col %s %s masks: ProbeVec of scalar-built STeM diverged", col, name)
					return false
				}
			}

			// Semi-join oracle: q ∧ (keep ∨ union of the matching entries'
			// sets), the union read at the STeM's width.
			qs := randSets(rng, len(probeKeys), bw)
			keep := randSets(rng, 1, bw)
			got := append([]uint64(nil), qs...)
			sB.SemiJoinVec(got, bw, keep, make([]uint64, bw), col, probeKeys)
			ref := bitset.Set(make([]uint64, qw))
			for i, k := range probeKeys {
				clear(ref)
				sA.SemiJoinQueries(ref, col, k)
				for w := 0; w < bw; w++ {
					var u uint64
					if w < qw {
						u = ref[w]
					}
					if want := qs[i*bw+w] & (keep[w] | u); got[i*bw+w] != want {
						t.Logf("col %s key %d word %d: SemiJoinVec = %#x, want %#x", col, k, w, got[i*bw+w], want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertVecWidthsAndChunks covers the directed edge cases: empty batch,
// query-set slabs narrower and wider than the STeM's width, and one batch
// spanning multiple chunks.
func TestInsertVecWidthsAndChunks(t *testing.T) {
	v := NewVersions()
	s := New(v, []string{"k"}, 100, 16) // qw = 2
	var sc InsertScratch

	s.InsertVec(nil, [][]int64{nil}, nil, 2, 0, &sc) // empty: no-op
	if s.Len() != 0 {
		t.Fatalf("empty InsertVec changed Len to %d", s.Len())
	}

	// Narrow slab (qw 1 into width 2): the missing high word zero-fills.
	s.InsertVec([]int32{1}, [][]int64{{7}}, []uint64{1 << 3}, 1, 0, &sc)
	// Wide slab (qw 3 into width 2): the extra word is dropped.
	s.InsertVec([]int32{2}, [][]int64{{8}}, []uint64{1 << 4, 1 << 5, ^uint64(0)}, 3, 0, &sc)
	v.Publish(0)
	ts := v.Now()
	if got := s.Probe(nil, "k", 7, ts); len(got) != 1 || !reflect.DeepEqual([]uint64(got[0].QSet), []uint64{1 << 3, 0}) {
		t.Fatalf("narrow-slab entry = %v", got)
	}
	if got := s.Probe(nil, "k", 8, ts); len(got) != 1 || !reflect.DeepEqual([]uint64(got[0].QSet), []uint64{1 << 4, 1 << 5}) {
		t.Fatalf("wide-slab entry = %v", got)
	}

	// One batch spanning three chunks.
	n := 2*chunkSize + 100
	vids := make([]int32, n)
	keys := make([]int64, n)
	qsets := make([]uint64, n*2)
	for i := range vids {
		vids[i] = int32(i + 10)
		keys[i] = int64(i % 97)
		qsets[i*2] = 1
	}
	s.InsertVec(vids, [][]int64{keys}, qsets, 2, 1, &sc)
	v.Publish(1)
	ts = v.Now()
	total := 0
	for k := int64(0); k < 97; k++ {
		total += len(s.Probe(nil, "k", k, ts))
	}
	if total != n+2 { // +2: the width-test entries on keys 7 and 8
		t.Fatalf("probed %d entries after multi-chunk InsertVec, want %d", total, n+2)
	}
	if got := probeVecCount(s, "k", keys[:97], ts, v.Watermark()); got != total {
		t.Fatalf("ProbeVec found %d entries, want %d", got, total)
	}
}

// TestProbeVecScalarAgreeUnderConcurrentPublication interleaves a publisher
// continuously inserting and publishing batches with a prober comparing
// Probe and ProbeVec under the same (watermark, timestamp) snapshot. The
// fused output must equal scalar Probe's matches intersected with the
// probing sets, empty intersections dropped: visibility is a deterministic
// function of the probe timestamp, and the watermark (read before the
// timestamp) may never admit more. The probing sets are random and two
// words wide against the one-word STeM, so the zero-filled high word is
// checked too. Run under -race this also checks the kernels' lock-free
// memory discipline.
func TestProbeVecScalarAgreeUnderConcurrentPublication(t *testing.T) {
	const domain = 32
	const maxEntries = 1 << 14
	v := NewVersions()
	s := New(v, []string{"k"}, 8, maxEntries)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		var sc InsertScratch
		slot := Slot(0)
		vid := int32(0)
		for int(vid) < maxEntries {
			select {
			case <-stop:
				return
			default:
			}
			n := 1 + rng.Intn(64)
			vids := make([]int32, n)
			keys := make([]int64, n)
			qsets := make([]uint64, n)
			for j := range vids {
				vids[j] = vid
				vid++
				keys[j] = rng.Int63n(domain)
				qsets[j] = 1 << uint(rng.Intn(8))
			}
			if slot%2 == 0 {
				s.InsertVec(vids, [][]int64{keys}, qsets, 1, slot, &sc)
			} else {
				for j := range vids {
					s.Insert(vids[j], keys[j:j+1], bitset.Set(qsets[j:j+1]), slot)
				}
			}
			v.Publish(slot)
			slot++
		}
	}()

	probeKeys := make([]int64, domain)
	for i := range probeKeys {
		probeKeys[i] = int64(i)
	}
	const bw = 2 // batch width past the STeM's one word
	rng := rand.New(rand.NewSource(7))
	var hits []VecHit
	var sets []uint64
	for iter := 0; iter < 150; iter++ {
		tqs := randSets(rng, domain, bw)
		wm := v.Watermark()
		ts := v.Now()
		want := canonScalar(s, "k", probeKeys, tqs, bw, ts)
		dirty(sets)
		hits, sets = s.ProbeVec(hits[:0], sets[:0], "k", probeKeys, tqs, bw, ts, wm)
		got := canonVec(hits, sets, bw)
		if !reflect.DeepEqual(got, want) {
			close(stop)
			wg.Wait()
			t.Fatalf("iter %d: ProbeVec diverged from scalar under concurrent publication (wm=%d, %d vs %d matches)",
				iter, wm, len(got), len(want))
		}
	}
	close(stop)
	wg.Wait()
}

// TestWatermarkMonotonicUnderConcurrentPublish hammers Publish from several
// goroutines over densely allocated slots and checks the watermark never
// regresses, never passes an unpublished slot, and converges to the full
// slot count once every publisher is done.
func TestWatermarkMonotonicUnderConcurrentPublish(t *testing.T) {
	const slots = 3000
	v := NewVersions()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				if n >= slots {
					return
				}
				v.Publish(Slot(n))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	last := Slot(0)
	for {
		w := v.Watermark()
		if w < last {
			t.Fatalf("watermark regressed: %d -> %d", last, w)
		}
		for _, probe := range []Slot{0, w / 2, w - 1} {
			if probe >= 0 && probe < w && v.tryGet(probe) == 0 {
				t.Fatalf("watermark %d passed unpublished slot %d", w, probe)
			}
		}
		last = w
		select {
		case <-done:
			if final := v.Watermark(); final != slots {
				t.Fatalf("final watermark = %d, want %d", final, slots)
			}
			return
		default:
		}
	}
}

// TestProbeVecDuringGC races ProbeVec against the streaming GC operations
// (SweepChunk, CompactLive, EnsureBuckets) under the engine's quiesce
// discipline — GC holds the gate exclusively, probes hold it shared — and
// checks every probe observes a consistent state: hits are a subset of the
// original entries and a superset of the post-GC survivors, every written
// set is exactly the probing set ∧ the entry's live bits (a swept entry's
// set is empty, so it is dropped, never written), and the watermark is
// unchanged by the rebuild (compacted entries keep their slots, so the
// under-watermark fast path stays correct). Half the probers use full
// probing sets and half random ones.
func TestProbeVecDuringGC(t *testing.T) {
	const n = 2 * chunkSize
	const domain = 128
	v := NewVersions()
	s := New(v, []string{"k"}, 2, n)
	// Query membership alternates per key-cohort ((i/domain)%2, not i%2 —
	// that parity would correlate with the key), so retiring query 0 kills
	// exactly half of every key's entries.
	for i := 0; i < n; i++ {
		s.Insert(int32(i), []int64{int64(i % domain)}, bitset.FromIDs(2, (i/domain)%2), 0)
	}
	v.Publish(0)
	wmBefore := v.Watermark()

	perKey := n / domain  // entries per key before GC
	liveKey := perKey / 2 // odd cohorts survive query-0 retirement
	probeKeys := make([]int64, domain)
	for i := range probeKeys {
		probeKeys[i] = int64(i)
	}

	var gate sync.RWMutex // stand-in for the engine's quiesce gate
	gcDone := make(chan struct{})
	go func() {
		defer close(gcDone)
		retired := bitset.FromIDs(2, 0)
		for ci := 0; ci < s.NumChunks(); ci++ {
			gate.Lock()
			s.SweepChunk(ci, retired)
			gate.Unlock()
		}
		gate.Lock()
		s.CompactLive()
		gate.Unlock()
		gate.Lock()
		s.EnsureBuckets(4 * n)
		gate.Unlock()
	}()

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; ; iter++ {
				select {
				case <-gcDone:
					return
				default:
				}
				// Prober 1's random sets always keep query 1, so the
				// survivor bound below holds for both probers.
				tqs := fullSets(domain, 1)
				if g == 1 {
					tqs = randSets(rng, domain, 1)
					for i := range tqs {
						tqs[i] |= 1 << 1
					}
				}
				gate.RLock()
				wm := v.Watermark()
				ts := v.Now()
				hits, sets := probeVec(s, "k", probeKeys, tqs, 1, ts, wm)
				gate.RUnlock()
				counts := make(map[int32]int, domain)
				for k, h := range hits {
					counts[h.In]++
					// Key attribution and the written set must hold at
					// every intermediate GC state: the entry's own bit
					// (cohort parity), possibly already swept when it is
					// query 0, intersected with the probing set.
					own := uint64(1) << uint((h.VID/domain)%2)
					if int64(h.VID%domain) != probeKeys[h.In] || sets[k] != own&tqs[h.In] {
						t.Errorf("prober %d iter %d: inconsistent hit %+v with set %#x (probing %#x)",
							g, iter, h, sets[k], tqs[h.In])
						return
					}
				}
				for in := range probeKeys {
					c := counts[int32(in)]
					if c < liveKey || c > perKey {
						t.Errorf("prober %d iter %d: key %d has %d matches, want %d..%d",
							g, iter, in, c, liveKey, perKey)
						return
					}
				}
			}
		}(g)
	}
	<-gcDone
	wg.Wait()
	if t.Failed() {
		return
	}

	if wmAfter := v.Watermark(); wmAfter != wmBefore {
		t.Fatalf("GC moved the watermark: %d -> %d", wmBefore, wmAfter)
	}
	// Post-GC exact check through the under-watermark fast path: compacted
	// survivors kept their (published) slots.
	hits, sets := probeVec(s, "k", probeKeys, fullSets(domain, 1), 1, v.Now(), v.Watermark())
	if len(hits) != domain*liveKey {
		t.Fatalf("post-GC ProbeVec = %d hits, want %d", len(hits), domain*liveKey)
	}
	for k, h := range hits {
		if (h.VID/domain)%2 != 1 || sets[k] != 1<<1 {
			t.Fatalf("post-GC hit %+v with set %#x carries retired state", h, sets[k])
		}
	}
}

// insertBenchBatch is one precomputed insert vector for the contention
// benchmarks: 256 tuples over 32 distinct keys (fact-table FK style), the
// shape where batch chain pre-linking collapses the most CASes.
const (
	insBatch  = 256
	insDomain = 32
)

func insertBenchInput() (vids []int32, keys []int64, qsets []uint64) {
	vids = make([]int32, insBatch)
	keys = make([]int64, insBatch)
	qsets = make([]uint64, insBatch)
	for i := range vids {
		vids[i] = int32(i)
		keys[i] = int64(i % insDomain)
		qsets[i] = ^uint64(0)
	}
	return
}

// BenchmarkSTeMInsertParallel compares the scalar and vector build paths
// under concurrent inserters: each op inserts one 256-tuple batch into a
// shared STeM. The STeM is swapped for a fresh one every few thousand
// batches (inside the timer, both modes alike) to bound memory and keep
// chain lengths comparable across the run.
func BenchmarkSTeMInsertParallel(b *testing.B) {
	vids, keys, qsets := insertBenchInput()
	const resetEvery = 4096
	fresh := func() *STeM {
		return New(NewVersions(), []string{"k"}, 64, resetEvery*insBatch)
	}
	for _, mode := range []string{"scalar", "vec"} {
		b.Run(mode, func(b *testing.B) {
			var cur atomic.Pointer[STeM]
			cur.Store(fresh())
			var batches atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var sc InsertScratch
				keyBuf := make([]int64, 1)
				for pb.Next() {
					n := batches.Add(1)
					if n%resetEvery == 0 {
						cur.Store(fresh())
					}
					s := cur.Load()
					slot := Slot(n & 1023)
					if mode == "vec" {
						s.InsertVec(vids, [][]int64{keys}, qsets, 1, slot, &sc)
					} else {
						for j := range vids {
							keyBuf[0] = keys[j]
							s.Insert(vids[j], keyBuf, bitset.Set(qsets[j:j+1]), slot)
						}
					}
				}
			})
		})
	}
}

// BenchmarkSTeMProbeParallel compares the scalar and vector probe paths on a
// fully published STeM: each op probes a 1024-key batch against a unique-key
// (dimension-table) STeM — the engine's dominant probe shape, where the
// per-key costs (column lookup, serialized bucket-head misses, per-entry
// version checks) dominate over chain walking. The watermark covers every
// entry, so the vector path exercises the no-version-check fast path the
// steady state runs in.
func BenchmarkSTeMProbeParallel(b *testing.B) {
	const entries = 1 << 16
	v := NewVersions()
	s := New(v, []string{"k"}, 64, entries)
	q := bitset.NewFull(64)
	// 64-tuple episodes, one slot each: the scalar path resolves a version
	// slot per entry, like a probe in a long-lived streaming session.
	for i := 0; i < entries; i++ {
		s.Insert(int32(i), []int64{int64(i)}, q, Slot(i>>6))
	}
	for sl := Slot(0); sl < entries>>6; sl++ {
		v.Publish(sl)
	}
	wm := v.Watermark()
	ts := v.Now()
	probeKeys := make([]int64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range probeKeys {
		probeKeys[i] = rng.Int63n(entries)
	}
	tqs := fullSets(len(probeKeys), 1) // every match is written, like scalar copies
	for _, mode := range []string{"scalar", "vec"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var dst []Match
				var hits []VecHit
				var sets []uint64
				for pb.Next() {
					if mode == "vec" {
						hits, sets = s.ProbeVec(hits[:0], sets[:0], "k", probeKeys, tqs, 1, ts, wm)
					} else {
						for _, k := range probeKeys {
							dst = s.Probe(dst[:0], "k", k, ts)
						}
					}
				}
			})
		})
	}
}
