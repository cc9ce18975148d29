package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeClock returns a deterministic, strictly increasing nanosecond stamp.
func fakeClock() func() int64 {
	var t int64
	return func() int64 { return atomic.AddInt64(&t, 1000) }
}

func TestRecordDrainOrder(t *testing.T) {
	r := NewRecorder(1, 16)
	r.SetNow(fakeClock())
	for i := 0; i < 10; i++ {
		r.Record(0, KEpisodeStart, int64(i), 2, 3, 4)
	}
	evs := r.Snapshot()
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, i+1)
		}
		if e.A != int64(i) || e.B != 2 || e.C != 3 || e.D != 4 {
			t.Errorf("event %d: args (%d,%d,%d,%d)", i, e.A, e.B, e.C, e.D)
		}
		if e.Kind != KEpisodeStart {
			t.Errorf("event %d: kind %v", i, e.Kind)
		}
		if i > 0 && e.TS <= evs[i-1].TS {
			t.Errorf("event %d: ts not increasing", i)
		}
	}
}

func TestOverwriteKeepsNewestWindow(t *testing.T) {
	r := NewRecorder(1, 8)
	r.SetNow(fakeClock())
	for i := 0; i < 100; i++ {
		r.Record(0, KGCQuantum, int64(i), 0, 0, 0)
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("got %d events, want 8 (ring capacity)", len(evs))
	}
	for i, e := range evs {
		if want := int64(92 + i); e.A != want {
			t.Errorf("event %d: a=%d, want %d", i, e.A, want)
		}
	}
}

func TestMergedTimelineGloballyOrdered(t *testing.T) {
	r := NewRecorder(4, 32)
	r.SetNow(fakeClock())
	// Interleave writers across rings; the shared fake clock gives every
	// event a unique global stamp.
	for i := 0; i < 100; i++ {
		r.Record(i%4, KEpisodeStart, int64(i), 0, 0, 0)
	}
	evs := r.Snapshot()
	if len(evs) != 100 {
		t.Fatalf("got %d events, want 100", len(evs))
	}
	lastSeq := map[int32]uint64{}
	for i, e := range evs {
		if i > 0 && e.TS < evs[i-1].TS {
			t.Fatalf("event %d: global TS order violated", i)
		}
		if e.Seq <= lastSeq[e.Ring] {
			t.Fatalf("event %d: ring %d seq %d not monotonic", i, e.Ring, e.Seq)
		}
		lastSeq[e.Ring] = e.Seq
	}
}

func TestSince(t *testing.T) {
	r := NewRecorder(1, 32)
	clk := fakeClock()
	r.SetNow(clk)
	for i := 0; i < 5; i++ {
		r.Record(0, KSubmit, int64(i), 0, 0, 0)
	}
	cut := clk() // 6000; events so far stamped 1000..5000
	for i := 5; i < 10; i++ {
		r.Record(0, KSubmit, int64(i), 0, 0, 0)
	}
	evs := r.Since(cut)
	if len(evs) != 5 {
		t.Fatalf("got %d events since cut, want 5", len(evs))
	}
	if evs[0].A != 5 {
		t.Fatalf("first event a=%d, want 5", evs[0].A)
	}
}

func TestNilAndDisabledRecorder(t *testing.T) {
	var nilR *Recorder
	nilR.Record(0, KSubmit, 0, 0, 0, 0) // must not panic
	if nilR.Enabled() || nilR.Rings() != 0 || nilR.Snapshot() != nil {
		t.Fatal("nil recorder should be inert")
	}
	r := NewRecorder(1, 8)
	r.SetEnabled(false)
	r.Record(0, KSubmit, 1, 0, 0, 0)
	if got := len(r.Snapshot()); got != 0 {
		t.Fatalf("disabled recorder captured %d events", got)
	}
}

func TestConcurrentRecordDrain(t *testing.T) {
	r := NewRecorder(3, 64)
	r.SetVClock(fakeClock())
	const perWriter = 2000
	var writers sync.WaitGroup
	stop := make(chan struct{})
	drained := make(chan struct{})
	// One drainer hammering Snapshot while writers record.
	go func() {
		defer close(drained)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range r.Snapshot() {
				if e.Kind != KEpisodeStart && e.Kind != KEpisodeEnd {
					t.Errorf("torn event surfaced: kind %v", e.Kind)
					return
				}
			}
		}
	}()
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWriter; i++ {
				k := KEpisodeStart
				if i%2 == 1 {
					k = KEpisodeEnd
				}
				r.Record(w, k, int64(i), int64(w), 0, 0)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	<-drained
	// Final snapshot: each ring holds its newest 64 events in seq order.
	evs := r.Snapshot()
	last := map[int32]uint64{}
	for _, e := range evs {
		if e.Seq <= last[e.Ring] {
			t.Fatalf("ring %d: seq %d out of order", e.Ring, e.Seq)
		}
		last[e.Ring] = e.Seq
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	r := NewRecorder(2, 256)
	r.SetVClock(func() int64 { return 42 })
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(0, KEpisodeStart, 1, 2, 3, 4)
		r.Record(1, KEpisodeEnd, 5, 6, 7, 8)
	})
	if allocs != 0 {
		t.Fatalf("Record allocated %.1f times per op, want 0", allocs)
	}
}

func TestTraceGolden(t *testing.T) {
	r := NewRecorder(2, 8)
	r.SetNow(fakeClock())
	r.SetVClock(func() int64 { return 7 })
	r.Record(0, KEpisodeStart, 3, 12, 0, 2)
	r.Record(0, KEpisodeEnd, 3, 12, 1000, 99)
	r.Record(1, KSubmit, 5, 1, 0, 0)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, r.Snapshot(), r.Rings()); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ms","traceEvents":[` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"worker 0"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"control"}},` +
		`{"name":"episode_start","ph":"i","ts":1,"pid":1,"tid":0,"s":"t","args":{"a":3,"b":12,"c":0,"d":2,"vclock":7}},` +
		`{"name":"episode","ph":"X","ts":1,"dur":1,"pid":1,"tid":0,"args":{"inst":3,"plan_sig":99,"slot":12,"vclock":7}},` +
		`{"name":"submit","ph":"i","ts":3,"pid":1,"tid":1,"s":"t","args":{"a":5,"b":1,"c":0,"d":0,"vclock":7}}` +
		`]}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("golden mismatch:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestTraceValidTraceEventJSON(t *testing.T) {
	r := NewRecorder(3, 32)
	r.SetNow(fakeClock())
	for i := 0; i < 20; i++ {
		r.Record(i%3, Kind(1+i%10), int64(i), 0, 500, 0)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, r.Snapshot(), r.Rings()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	for i, te := range f.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := te[key]; !ok {
				t.Fatalf("event %d missing required key %q: %v", i, key, te)
			}
		}
		if ph := te["ph"].(string); ph == "X" {
			if _, ok := te["dur"]; !ok {
				t.Fatalf("complete event %d missing dur", i)
			}
		}
	}
}

func TestLast(t *testing.T) {
	var nilRec *Recorder
	if _, ok := nilRec.Last(0); ok {
		t.Error("nil recorder reported an event")
	}
	r := NewRecorder(2, 8)
	if _, ok := r.Last(0); ok {
		t.Error("empty ring reported an event")
	}
	for i := 0; i < 20; i++ { // wraps the 8-slot ring
		r.Record(0, KEpisodeStart, int64(i), 0, 0, 0)
	}
	r.Record(1, KGCQuantum, 7, 0, 0, 0)
	if e, ok := r.Last(0); !ok || e.Kind != KEpisodeStart || e.A != 19 || e.Seq != 20 {
		t.Errorf("Last(0) = %+v, %v; want the 20th event", e, ok)
	}
	if e, ok := r.Last(1); !ok || e.Kind != KGCQuantum || e.A != 7 || e.Ring != 1 {
		t.Errorf("Last(1) = %+v, %v", e, ok)
	}
}
