// Package obs implements the engine's flight recorder: fixed-size,
// lock-free per-worker rings of typed events (episode lifecycle, admission,
// fences, epochs, GC, retirement) that are cheap enough to leave on in
// production and can be merged on demand into a single causal timeline.
//
// Design: each ring is a power-of-two array of fully atomic slots claimed
// by a single fetch-add on the ring's position counter. A writer
// invalidates the claimed slot (seq←0), stores the payload fields, then
// publishes by storing the claim number into seq. A reader validates seq
// before and after copying the fields and drops the event if either check
// fails (torn or overwritten slot). This is a seqlock inverted per slot:
// writers never block, readers never block writers, and the race detector
// sees only atomic operations. Recording performs zero heap allocations,
// so the episode hot path keeps its 0 allocs/op guarantee with the
// recorder enabled.
//
// Events are stamped with both wall-clock nanoseconds (for Chrome
// trace_event export) and the engine's sharded version clock frontier (for
// causal ordering against STeM publication), and carry four opaque int64
// arguments whose meaning depends on the event kind (see Kind docs).
package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Kind identifies the type of a recorded event. The A..D argument slots
// are interpreted per kind as documented on each constant.
type Kind uint8

const (
	KNone Kind = iota

	// KEpisodeStart: a worker began an episode.
	// A=instance, B=slot, C=first active-bitset word, D=active query count.
	KEpisodeStart
	// KEpisodeEnd: a worker finished an episode.
	// A=instance, B=slot, C=duration ns, D=plan signature.
	KEpisodeEnd
	// KSubmit: a query entered the engine via SubmitLive.
	// A=query id, B=number of fence-queued grow ops, C=tenant hash.
	KSubmit
	// KAdmit: a pending query activated (its scans became schedulable).
	// A=query id.
	KAdmit
	// KReject: admission control rejected a submission. A=query id (-1 if
	// rejected before an id was assigned), C=tenant hash.
	KReject
	// KShed: a query was shed (hopeless or expired deadline).
	// A=query id (-1 at submit time), B=1 if shed mid-flight, C=tenant
	// hash at submit time.
	KShed
	// KLanePromote: the scheduler promoted a query's scans into the
	// deadline-urgency lane. A=query id, B=deadline (unix ns).
	KLanePromote
	// KFenceQueue: a structural op was queued behind an instance fence.
	// A=instance, B=query id.
	KFenceQueue
	// KFenceDrain: an instance fence drained and ran its queued ops.
	// A=instance, B=number of ops run, C=fence age ns.
	KFenceDrain
	// KEpochAdvance: the epoch domain advanced. A=new generation.
	KEpochAdvance
	// KEpochDefer: a reclamation was deferred pending a grace period.
	// A=generation at defer.
	KEpochDefer
	// KEpochRelease: deferred reclamations ran after their grace period.
	// A=number of functions released.
	KEpochRelease
	// KGCQuantum: a budgeted concurrent GC quantum ran.
	// A=instance, B=chunks swept.
	KGCQuantum
	// KGCSweepRestart: a GC sweep restarted from chunk 0 because a fenced
	// compaction repositioned entries mid-pass. A=instance, B=compact gen.
	KGCSweepRestart
	// KGCCompact: a live-compaction was issued. A=instance, B=0 if run
	// inline, 1 if queued behind a fence.
	KGCCompact
	// KRetire: a query retired. A=query id, B=1 if completed, 0 if failed.
	KRetire
	// KCallback: retirement callbacks were handed off. A=count.
	KCallback
	// KEpisodeTrace: a traced episode's outcome, recorded on the worker's
	// ring right after its KEpisodeEnd. A=ingested tuples | join-input
	// tuples<<32, B=measured cost as float64 bits, C=selection actions |
	// join actions<<32, D=fault class+1 (0 for a completed episode).
	KEpisodeTrace
	// KEpisodeActions: the next eight action IDs of the KEpisodeTrace
	// before it, selection actions first, two int32 IDs per argument (low
	// half first). The last event of an episode is zero-padded.
	KEpisodeActions
)

var kindNames = [...]string{
	KNone:           "none",
	KEpisodeStart:   "episode_start",
	KEpisodeEnd:     "episode",
	KSubmit:         "submit",
	KAdmit:          "admit",
	KReject:         "reject",
	KShed:           "shed",
	KLanePromote:    "lane_promote",
	KFenceQueue:     "fence_queue",
	KFenceDrain:     "fence_drain",
	KEpochAdvance:   "epoch_advance",
	KEpochDefer:     "epoch_defer",
	KEpochRelease:   "epoch_release",
	KGCQuantum:      "gc_quantum",
	KGCSweepRestart: "gc_sweep_restart",
	KGCCompact:      "gc_compact",
	KRetire:         "retire",
	KCallback:       "callback",
	KEpisodeTrace:   "episode_trace",
	KEpisodeActions: "episode_actions",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one decoded flight-recorder entry.
type Event struct {
	TS   int64 // wall-clock nanoseconds
	VC   int64 // sharded version-clock frontier at record time
	Seq  uint64
	Ring int32
	Kind Kind
	A    int64
	B    int64
	C    int64
	D    int64
}

// slot is one ring entry. Every field is atomic so concurrent
// record/drain is race-detector clean; seq==0 marks an in-progress write.
// Eight 8-byte words: exactly one cache line on common hardware.
type slot struct {
	seq  atomic.Uint64
	ts   atomic.Int64
	vc   atomic.Int64
	kind atomic.Uint64
	a    atomic.Int64
	b    atomic.Int64
	c    atomic.Int64
	d    atomic.Int64
}

// ring is one per-worker event ring. pos is padded so claims by
// different workers (control ring vs worker rings) do not false-share.
type ring struct {
	pos   atomic.Uint64
	_     [56]byte
	mask  uint64
	slots []slot
}

// Recorder holds one ring per worker plus, by convention, one extra
// control ring (index Workers()) for engine-side events recorded under
// the session lock. The zero Recorder and a nil *Recorder are both safe
// no-ops for Record.
type Recorder struct {
	enabled atomic.Bool
	vclock  atomic.Pointer[func() int64]
	nowFn   func() int64 // test seam; wall clock by default
	rings   []ring
}

// NewRecorder creates a recorder with rings rings of perRing slots each
// (rounded up to a power of two, minimum 8). The recorder starts enabled.
func NewRecorder(rings, perRing int) *Recorder {
	if rings < 1 {
		rings = 1
	}
	n := 8
	for n < perRing {
		n <<= 1
	}
	r := &Recorder{nowFn: wallNow, rings: make([]ring, rings)}
	for i := range r.rings {
		r.rings[i].mask = uint64(n - 1)
		r.rings[i].slots = make([]slot, n)
	}
	r.enabled.Store(true)
	return r
}

func wallNow() int64 { return time.Now().UnixNano() }

// SetVClock installs the version-clock read used to stamp events with a
// causal timestamp. fn must be safe for concurrent use and must not
// advance the clock (use a frontier read, not a draw).
func (r *Recorder) SetVClock(fn func() int64) {
	if fn == nil {
		r.vclock.Store(nil)
		return
	}
	r.vclock.Store(&fn)
}

// SetNow overrides the wall-clock source. Test-only seam; call before any
// Record.
func (r *Recorder) SetNow(fn func() int64) { r.nowFn = fn }

// SetEnabled turns recording on or off. When off, Record is a single
// atomic load and a branch.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether recording is on. Nil-safe.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// Rings returns the number of rings. Nil-safe.
func (r *Recorder) Rings() int {
	if r == nil {
		return 0
	}
	return len(r.rings)
}

// Record appends an event to ring ri. Nil-safe, lock-free, and
// allocation-free; concurrent writers to the same ring are safe (a torn
// overwrite is detected and dropped at read time via the seq protocol).
func (r *Recorder) Record(ri int, k Kind, a, b, c, d int64) {
	if r == nil || !r.enabled.Load() {
		return
	}
	rg := &r.rings[ri]
	n := rg.pos.Add(1)
	s := &rg.slots[(n-1)&rg.mask]
	s.seq.Store(0)
	s.ts.Store(r.nowFn())
	var vc int64
	if p := r.vclock.Load(); p != nil {
		vc = (*p)()
	}
	s.vc.Store(vc)
	s.kind.Store(uint64(k))
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.d.Store(d)
	s.seq.Store(n)
}

// Last returns the newest published event of ring ri; ok is false when
// the ring is empty or a writer keeps tearing its newest slots. Nil-safe
// and allocation-free.
func (r *Recorder) Last(ri int) (e Event, ok bool) {
	if r == nil {
		return Event{}, false
	}
	rg := &r.rings[ri]
	hi := rg.pos.Load()
	// A claim in progress leaves the slot before it as the newest
	// published event; look back a few slots at most.
	for n := hi; n > 0 && n+4 > hi && n+uint64(len(rg.slots)) > hi; n-- {
		if e, ok = r.readSlot(ri, n); ok {
			return e, true
		}
	}
	return Event{}, false
}

// readSlot copies event number n of ring ri if it is still published.
func (r *Recorder) readSlot(ri int, n uint64) (Event, bool) {
	rg := &r.rings[ri]
	s := &rg.slots[(n-1)&rg.mask]
	if s.seq.Load() != n {
		return Event{}, false // torn, unpublished, or already overwritten
	}
	ev := Event{
		TS:   s.ts.Load(),
		VC:   s.vc.Load(),
		Seq:  n,
		Ring: int32(ri),
		Kind: Kind(s.kind.Load()),
		A:    s.a.Load(),
		B:    s.b.Load(),
		C:    s.c.Load(),
		D:    s.d.Load(),
	}
	if s.seq.Load() != n {
		return Event{}, false // overwritten while copying
	}
	return ev, true
}

// drainRing copies the currently valid events of ring ri into out.
func (r *Recorder) drainRing(ri int, out []Event) []Event {
	rg := &r.rings[ri]
	hi := rg.pos.Load()
	if hi == 0 {
		return out
	}
	lo := uint64(1)
	if cap := uint64(len(rg.slots)); hi > cap {
		lo = hi - cap + 1
	}
	for e := lo; e <= hi; e++ {
		if ev, ok := r.readSlot(ri, e); ok {
			out = append(out, ev)
		}
	}
	return out
}

// Snapshot merges every ring into a single timeline ordered by
// (wall time, ring, sequence). Within one ring events are guaranteed
// monotonically ordered by Seq; across rings the wall clock provides the
// causal merge (version-clock stamps break residual ties for analysis).
// Nil-safe.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.rings {
		out = r.drainRing(i, out)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].Ring != out[j].Ring {
			return out[i].Ring < out[j].Ring
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Since returns the merged timeline restricted to events with TS >= ts.
func (r *Recorder) Since(ts int64) []Event {
	evs := r.Snapshot()
	i := sort.Search(len(evs), func(i int) bool { return evs[i].TS >= ts })
	return evs[i:]
}
