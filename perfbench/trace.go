package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/roulette-db/roulette/internal/obs"
)

// span is one timed interval at a layer boundary. Spans of one request
// (a batch, or one streamed query) share Req; Parent is the index of the
// enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, req int64, parent int) int {
	return t.add(name, req, parent, time.Now(), time.Time{})
}

// end closes span id now.
func (t *tracer) end(id int) { t.spans[id].End = t.ns(time.Now()) }

// add records a span whose interval is already known; a zero end leaves
// it open for end. An end before the start (a query that retired inside
// its own Submit) is recorded as an empty span.
func (t *tracer) add(name string, req int64, parent int, start, end time.Time) int {
	id := len(t.spans)
	s := span{Name: name, Req: req, ID: id, Parent: parent, Start: t.ns(start)}
	if !end.IsZero() {
		s.End = max(t.ns(end), s.Start)
	}
	t.spans = append(t.spans, s)
	return id
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		covered := int64(0)
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		cur := s.Start
		for _, k := range kids {
			lo, hi := t.spans[k].Start, t.spans[k].End
			if lo < cur {
				lo = cur
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// rootTime sums the durations of the root spans.
func (t *tracer) rootTime() time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// flightRingSize is the per-ring capacity of the traced run's flight
// recorder. drain must run before any ring wraps: at two events per episode
// a ring holds 8192 episodes of one worker.
const flightRingSize = 1 << 14

// flight folds the engine's flight-recorder events into the per-layer
// counters: episode durations, GC quanta, fence ages, and the wait from a
// query's submission to its first episode.
type flight struct {
	rec     *obs.Recorder
	lastSeq []uint64
	lost    int64

	episodeUs []float64 // per-episode wall time
	busy      time.Duration
	gcQuanta  int64
	fenceAge  time.Duration
	fences    int64

	submitAt  map[int64]int64 // query id -> KSubmit time (ids < 64 only)
	admitWait []float64       // submit -> first episode, ms
}

func newFlight(workers int) *flight {
	return &flight{
		rec:      obs.NewRecorder(workers+1, flightRingSize),
		lastSeq:  make([]uint64, workers+1),
		submitAt: make(map[int64]int64),
	}
}

// drain folds every event recorded since the previous drain.
func (f *flight) drain() {
	for _, e := range f.rec.Snapshot() {
		last := f.lastSeq[e.Ring]
		if e.Seq <= last {
			continue
		}
		if e.Seq > last+1 {
			f.lost += int64(e.Seq - last - 1)
		}
		f.lastSeq[e.Ring] = e.Seq
		switch e.Kind {
		case obs.KEpisodeEnd:
			f.episodeUs = append(f.episodeUs, float64(e.C)/1e3)
			f.busy += time.Duration(e.C)
		case obs.KEpisodeStart:
			// C is the first word of the episode's active-query bitset.
			for w := uint64(e.C); w != 0; w &= w - 1 {
				qid := int64(bits.TrailingZeros64(w))
				if at, ok := f.submitAt[qid]; ok {
					f.admitWait = append(f.admitWait, float64(e.TS-at)/1e6)
					delete(f.submitAt, qid)
				}
			}
		case obs.KSubmit:
			if e.A < 64 {
				f.submitAt[e.A] = e.TS
			}
		case obs.KRetire:
			delete(f.submitAt, e.A)
		case obs.KGCQuantum:
			f.gcQuanta++
		case obs.KFenceDrain:
			f.fences++
			f.fenceAge += time.Duration(e.C)
		}
	}
}

// warnLost reports recorder overruns, which would bias the episode counts.
func (f *flight) warnLost() {
	if f.lost > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: flight recorder overwrote %d events before they were read\n", f.lost)
	}
}
