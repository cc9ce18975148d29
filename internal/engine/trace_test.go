package engine

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/obs"
	"github.com/roulette-db/roulette/internal/query"
)

// traceSession is a bare session over a recorder with the given rings,
// enough for recording and decoding traces by hand.
func traceSession(rings, perRing int) *Session {
	return &Session{
		rec: obs.NewRecorder(rings, perRing),
		b:   &query.Batch{Insts: []query.Instance{{Table: "a"}, {Table: "b"}}},
	}
}

// recordTestEpisode records one traced episode on worker ring w the way
// runWorker does: start, end, then the trace header and packed actions.
func recordTestEpisode(s *Session, w int, slot int64, sel, join []int32, err error) {
	in := exec.EpisodeInput{Inst: 1, VIDs: make([]int32, 100+int(slot))}
	s.rec.Record(w, obs.KEpisodeStart, int64(in.Inst), slot, 0b101, 2)
	s.rec.Record(w, obs.KEpisodeEnd, int64(in.Inst), slot, 1000+slot, 0)
	rep := exec.EpisodeReport{
		JoinInput: 50 + int(slot), MeasuredCost: 0.1 + float64(slot),
		SelActions: sel, JoinActions: join,
	}
	s.recordTrace(w, in, rep, err)
}

// TestTraceRoundTrip checks the trace encoding: every field and
// every action ID (including ones that need the full 32 bits, and counts
// that are not a multiple of the eight-per-event packing) decodes intact.
func TestTraceRoundTrip(t *testing.T) {
	s := traceSession(2, 64)
	sel := []int32{3, 0, math.MaxInt32, 7, 1 << 20, 5, 6, 2, 9, 11, 4}
	join := []int32{1, 0, 1<<31 - 2, 2, 3, 4}
	recordTestEpisode(s, 0, 0, sel, join, nil)
	recordTestEpisode(s, 0, 1, nil, nil, &EpisodeError{Kind: FaultInsert})
	recordTestEpisode(s, 0, 2, nil, join[:1], nil)

	got := s.Trace(10)
	want := []EpisodeTrace{
		{Episode: 0, Table: "b", ActiveQueries: 2, Input: 100, JoinInput: 50, Cost: 0.1, Duration: 1000, SelActions: sel, JoinActions: join},
		{Episode: 1, Table: "b", ActiveQueries: 2, Input: 101, JoinInput: 51, Cost: 1.1, Duration: 1001, Fault: "insert"},
		{Episode: 2, Table: "b", ActiveQueries: 2, Input: 102, JoinInput: 52, Cost: 2.1, Duration: 1002, JoinActions: join[:1]},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded\n%+v\nwant\n%+v", got, want)
	}
	if last := s.Trace(2); !reflect.DeepEqual(last, want[1:]) {
		t.Errorf("last 2 = %+v, want %+v", last, want[1:])
	}
}

// TestTraceDropsPartial checks that an episode whose events were
// partly overwritten, or that lost an event in the middle, is left out
// instead of being returned with missing actions.
func TestTraceDropsPartial(t *testing.T) {
	acts := []int32{1, 2, 3, 4, 5, 6, 7, 8, 9} // trace header + 2 action events
	// Each episode takes 5 events; a 16-slot ring holds episodes 1-3 whole
	// and only the last event of episode 0.
	s := traceSession(2, 16)
	for slot := int64(0); slot < 4; slot++ {
		recordTestEpisode(s, 0, slot, acts, nil, nil)
	}
	var slots []int64
	for _, te := range s.Trace(10) {
		slots = append(slots, te.Episode)
		if len(te.SelActions) != len(acts) {
			t.Errorf("slot %d decoded with %d actions, want %d", te.Episode, len(te.SelActions), len(acts))
		}
	}
	if !reflect.DeepEqual(slots, []int64{1, 2, 3}) {
		t.Errorf("decoded slots %v, want [1 2 3]", slots)
	}

	// An event of another kind between an episode's events breaks its
	// run of consecutive sequence numbers on the ring.
	s = traceSession(2, 64)
	recordTestEpisode(s, 0, 0, acts, nil, nil)
	s.rec.Record(0, obs.KEpisodeStart, 1, 1, 0, 1)
	s.rec.Record(0, obs.KEpisodeEnd, 1, 1, 5, 0)
	s.rec.Record(0, obs.KGCQuantum, 0, 0, 0, 0)
	s.recordTrace(0, exec.EpisodeInput{}, exec.EpisodeReport{}, errors.New("x"))
	recordTestEpisode(s, 0, 2, nil, nil, nil)
	slots = slots[:0]
	for _, te := range s.Trace(10) {
		slots = append(slots, te.Episode)
	}
	if !reflect.DeepEqual(slots, []int64{0, 2}) {
		t.Errorf("decoded slots %v, want [0 2]", slots)
	}
}

// TestTraceWindowLastEpisodes runs a 2-worker batch with a trace window
// smaller than its episode count: the decoded trace is exactly the last N
// episodes to end, oldest first.
func TestTraceWindowLastEpisodes(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	db := starDB(rng, 400, 20)
	b, err := query.Compile(starQueries(rng, 4))
	if err != nil {
		t.Fatal(err)
	}
	opt := exec.DefaultOptions()
	opt.VectorSize = 16
	opt.TraceActions = true
	const n = 8
	rec := NewTraceRecorder(2, n)
	s, err := NewSession(b, db, Config{Exec: opt, Workers: 2, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Episodes <= n {
		t.Fatalf("only %d episodes; the window must be smaller than the batch", res.Episodes)
	}
	var ends []obs.Event
	for _, e := range rec.Snapshot() {
		if e.Kind == obs.KEpisodeEnd {
			ends = append(ends, e) // already ordered by (TS, ring, seq)
		}
	}
	var want []int64
	for _, e := range ends[len(ends)-n:] {
		want = append(want, e.B)
	}
	var got []int64
	for _, te := range s.Trace(n) {
		got = append(got, te.Episode)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("traced slots %v, want the last %d ended %v", got, n, want)
	}
}

// TestOpenEpisodesFromRecorder checks that DebugSnapshot and Diagnose read
// each worker's open episode from the newest event on its ring: a trailing
// KEpisodeStart is an open episode, anything after it closes it.
func TestOpenEpisodesFromRecorder(t *testing.T) {
	rec := obs.NewRecorder(3, 64) // 2 workers + control ring
	s, _ := schedSession(t, 8, Config{Recorder: rec, Workers: 2})
	qid, err := s.SubmitLiveMeta(singleRel("d1"), SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	inst := int64(scanOf(s, qid))
	rec.Record(1, obs.KEpisodeStart, inst, 7, 1<<qid, 1)

	snap := s.DebugSnapshot()
	if len(snap.Workers) != 1 {
		t.Fatalf("snapshot workers = %+v, want worker 1's open episode", snap.Workers)
	}
	w := snap.Workers[0]
	if w.Worker != 1 || int64(w.Inst) != inst || w.Slot != 7 || !reflect.DeepEqual(w.ActiveQueries, []int{qid}) {
		t.Errorf("open episode = %+v", w)
	}
	stalled := func() []Finding {
		var out []Finding
		for _, f := range s.Diagnose(DiagnoseConfig{EpisodeStall: 1}) {
			if f.Kind == "stalled_episode" {
				out = append(out, f)
			}
		}
		return out
	}
	if fs := stalled(); len(fs) != 1 || fs[0].Worker != 1 || fs[0].Slot != 7 {
		t.Errorf("stalled_episode findings = %+v, want worker 1 slot 7", fs)
	}

	rec.Record(1, obs.KEpisodeEnd, inst, 7, 100, 0)
	if snap := s.DebugSnapshot(); len(snap.Workers) != 0 {
		t.Errorf("ended episode still open: %+v", snap.Workers)
	}
	if fs := stalled(); len(fs) != 0 {
		t.Errorf("ended episode still diagnosed: %+v", fs)
	}
}

// TestRecordTraceZeroAlloc pins the tracing cost on the worker: recording
// an episode's outcome and packed actions allocates nothing.
func TestRecordTraceZeroAlloc(t *testing.T) {
	s := traceSession(2, 1024)
	in := exec.EpisodeInput{VIDs: make([]int32, 64)}
	rep := exec.EpisodeReport{SelActions: make([]int32, 5), JoinActions: make([]int32, 50)}
	if n := testing.AllocsPerRun(100, func() { s.recordTrace(0, in, rep, nil) }); n != 0 {
		t.Errorf("recordTrace allocates %v times per episode", n)
	}
}
