package qlearn

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// fuzzIdentityRemap maps the first 4096 IDs of every ID space to
// themselves (all 256 instances, all 64 lineage bits); IDs past it fall
// out of range, which a Remap defines as dropped.
func fuzzIdentityRemap() *Remap {
	id := func(n int) []int {
		m := make([]int, n)
		for i := range m {
			m[i] = i
		}
		return m
	}
	const ids = 1 << 12
	rm := &Remap{NQ: ids, Query: id(ids), Inst: id(256), JoinOp: id(ids), SelOp: id(ids)}
	rm.SelBit = make([][]int, 256)
	for i := range rm.SelBit {
		rm.SelBit[i] = id(64)
	}
	return rm
}

// withTrailer appends the codec's FNV-1a trailer, so mutated bodies get
// past the checksum and reach the parser.
func withTrailer(body []byte) []byte {
	return putU64(append([]byte(nil), body...), fnvSum(body))
}

// FuzzSnapshotDecode feeds arbitrary bodies (with a valid checksum) to
// DecodeSnapshot. Each input must either fail to decode, or decode to a
// snapshot that re-encodes to the same bytes and imports into a fresh
// policy through an identity remap without panicking.
func FuzzSnapshotDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 8, 40} {
		tbl := newTableSized(8)
		for _, o := range genOps(rng, n) {
			s := tbl.Slot(o.phase, o.inst, o.lineage, o.q, o.op)
			s.value = o.value
			s.visits += uint32(1 + rng.Intn(5))
		}
		data := (&Snapshot{NQueries: snapNQ, Entries: tbl.Export(identityRemap())}).Encode()
		f.Add(data[:len(data)-8])
	}
	rm := fuzzIdentityRemap()
	f.Fuzz(func(t *testing.T, body []byte) {
		data := withTrailer(body)
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if enc := s.Encode(); !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode round trip changed the bytes:\n%x\n%x", data, enc)
		}
		New(DefaultConfig()).Import(s, rm)
	})
}

// TestSnapshotDecodeBoundsEntryCount pins the untrusted-count check: a
// well-formed header claiming 2^32-1 entries must fail fast instead of
// sizing an allocation from the claim.
func TestSnapshotDecodeBoundsEntryCount(t *testing.T) {
	body := append([]byte(nil), snapMagic...)
	body = putU32(body, snapVersion)
	body = putU32(body, 4)
	body = putU32(body, 1<<32-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeSnapshot(withTrailer(body))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("snapshot claiming 2^32-1 entries in 0 bytes decoded")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Errorf("rejecting the claim allocated %d bytes", d)
	}
}
