package policystore

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/roulette-db/roulette/internal/qlearn"
)

// identityRemap maps the first 4096 IDs of every ID space to themselves
// (all 256 instances, all 64 lineage bits); IDs past it fall out of
// range, which a Remap defines as dropped.
func identityRemap() *qlearn.Remap {
	id := func(n int) []int {
		m := make([]int, n)
		for i := range m {
			m[i] = i
		}
		return m
	}
	const ids = 1 << 12
	rm := &qlearn.Remap{NQ: ids, Query: id(ids), Inst: id(256), JoinOp: id(ids), SelOp: id(ids)}
	rm.SelBit = make([][]int, 256)
	for i := range rm.SelBit {
		rm.SelBit[i] = id(64)
	}
	return rm
}

// withTrailer appends the file format's FNV-1a trailer, so mutated bodies
// get past the checksum and reach the parser.
func withTrailer(body []byte) []byte {
	return putU64(append([]byte(nil), body...), fnvSum(body))
}

// FuzzPolicyFileDecode feeds arbitrary bodies (with a valid checksum) to
// the policy-file decoder. Each input must either fail to decode, or
// decode to snapshots that each round-trip through Encode and import into
// a fresh policy through an identity remap without panicking.
func FuzzPolicyFileDecode(f *testing.F) {
	for _, n := range []int{0, 1, 3} {
		c, _ := Open(Options{})
		for sig := 0; sig < n; sig++ {
			c.Put(uint64(sig*7+1), snapFor(sig+1, sig+2))
		}
		data := c.encode()
		f.Add(data[:len(data)-8])
	}
	rm := identityRemap()
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := decode(withTrailer(body))
		if err != nil {
			return
		}
		for sig, s := range m {
			re, err := qlearn.DecodeSnapshot(s.Encode())
			if err != nil {
				t.Fatalf("template %x: re-encoded snapshot does not decode: %v", sig, err)
			}
			if !reflect.DeepEqual(re, s) {
				t.Fatalf("template %x: round trip changed the snapshot:\n%+v\n%+v", sig, s, re)
			}
			qlearn.New(qlearn.DefaultConfig()).Import(s, rm)
		}
	})
}

// TestOpenBoundsEntryCount pins the untrusted-count check: a policy file
// with a valid checksum whose header claims 2^32-1 entries must be
// reported and leave a usable empty cache, without sizing an allocation
// from the claim.
func TestOpenBoundsEntryCount(t *testing.T) {
	body := putU32([]byte(fileMagic), fileVersion)
	body = putU32(body, 1<<32-1)
	path := filepath.Join(t.TempDir(), "policy.bin")
	if err := os.WriteFile(path, withTrailer(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := Open(Options{Path: path})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("file claiming 2^32-1 entries in 0 bytes loaded")
	}
	if c == nil || c.Len() != 0 {
		t.Fatalf("rejected file left cache %+v", c)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
		t.Errorf("rejecting the claim allocated %d bytes", d)
	}
}
