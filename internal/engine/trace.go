package engine

import (
	"math"
	"time"

	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/obs"
)

// Episode tracing rides on the flight recorder. With Config.Exec.
// TraceActions on and a recorder attached, every worker follows its
// KEpisodeStart/KEpisodeEnd pair with a KEpisodeTrace header and the
// episode's action IDs packed eight to a KEpisodeActions event, all on its
// own ring. Session.Trace decodes those runs back into episodes.

// traceSlotsPerEpisode sizes a trace recorder's rings: each traced episode
// takes three events plus one per eight actions, so a ring of N×16 slots
// keeps the last N episodes of windows averaging up to 104 decisions per
// episode. A heavier window keeps fewer (never partial) episodes.
const traceSlotsPerEpisode = 16

// NewTraceRecorder returns a flight recorder for a batch session of the
// given worker count that keeps at least its last episodes traced
// episodes: one ring per worker plus the control ring.
func NewTraceRecorder(workers, episodes int) *obs.Recorder {
	return obs.NewRecorder(max(workers, 1)+1, episodes*traceSlotsPerEpisode)
}

// EpisodeTrace is one traced episode.
type EpisodeTrace struct {
	Episode int64  `json:"episode"`
	Table   string `json:"table"` // scanned relation
	// ActiveQueries is the size of the episode's active query set.
	ActiveQueries int           `json:"active_queries"`
	Input         int           `json:"input"`      // ingested tuples
	JoinInput     int           `json:"join_input"` // tuples entering the join phase
	Cost          float64       `json:"cost"`       // cost-model total over the episode log
	Duration      time.Duration `json:"duration_ns"`
	// SelActions are the chosen selection-operator IDs in application order;
	// JoinActions the probed join-edge IDs in execution order.
	SelActions  []int32 `json:"sel_actions,omitempty"`
	JoinActions []int32 `json:"join_actions,omitempty"`
	// Fault is empty for completed episodes, else the fault class
	// ("panic", "insert", "stall").
	Fault string `json:"fault,omitempty"`
}

// recordTrace appends a finished episode's outcome and actions to worker
// id's ring. Allocation-free.
func (s *Session) recordTrace(id int, in exec.EpisodeInput, rep exec.EpisodeReport, err error) {
	var fault int64
	if ee, ok := err.(*EpisodeError); ok { // runEpisode's only error type
		fault = int64(ee.Kind) + 1
	}
	nsel := len(rep.SelActions)
	s.rec.Record(id, obs.KEpisodeTrace,
		int64(len(in.VIDs))|int64(rep.JoinInput)<<32,
		int64(math.Float64bits(rep.MeasuredCost)),
		int64(nsel)|int64(len(rep.JoinActions))<<32,
		fault)
	for i, n := 0, nsel+len(rep.JoinActions); i < n; i += 8 {
		var w [4]int64
		for j := 0; j < 8 && i+j < n; j++ {
			a, k := rep.SelActions, i+j
			if k >= nsel {
				a, k = rep.JoinActions, k-nsel
			}
			w[j/2] |= int64(uint32(a[k])) << (32 * (j % 2))
		}
		s.rec.Record(id, obs.KEpisodeActions, w[0], w[1], w[2], w[3])
	}
}

// Trace decodes the last n complete traced episodes from the session's
// recorder, oldest first by episode end. An episode is complete when its
// start, end, trace header and every action event sit at consecutive
// sequence numbers on one ring; an episode whose events were partly
// overwritten is left out. Call it after the run.
func (s *Session) Trace(n int) []EpisodeTrace {
	type partial struct {
		last  obs.Kind // last event decoded; KNone between episodes
		seq   uint64
		start obs.Event
		at    int // the episode's index in out, reserved at its end event
		nsel  int
		acts  []int32
	}
	parts := make([]partial, s.rec.Rings())
	var out []EpisodeTrace
	var complete []bool
	for _, e := range s.rec.Snapshot() {
		// An event out of order or after a gap matches no case, so the
		// episode it belongs to never completes.
		p := &parts[e.Ring]
		next := e.Seq == p.seq+1
		switch {
		case e.Kind == obs.KEpisodeStart:
			*p = partial{start: e}
		case e.Kind == obs.KEpisodeEnd && next && p.last == obs.KEpisodeStart:
			p.at = len(out)
			tr := EpisodeTrace{Episode: p.start.B, ActiveQueries: int(p.start.D), Duration: time.Duration(e.C)}
			if inst := int(p.start.A); inst < len(s.b.Insts) {
				tr.Table = s.b.Insts[inst].Table
			}
			out, complete = append(out, tr), append(complete, false)
		case e.Kind == obs.KEpisodeTrace && next && p.last == obs.KEpisodeEnd:
			tr := &out[p.at]
			tr.Input, tr.JoinInput = int(uint32(e.A)), int(e.A>>32)
			tr.Cost = math.Float64frombits(uint64(e.B))
			if e.D > 0 {
				tr.Fault = FaultKind(e.D - 1).String()
			}
			p.nsel = int(uint32(e.C))
			p.acts = make([]int32, 0, p.nsel+int(e.C>>32))
		case e.Kind == obs.KEpisodeActions && next && p.acts != nil:
			for _, w := range [...]int64{e.A, e.B, e.C, e.D} {
				for h := 0; h < 2 && len(p.acts) < cap(p.acts); h++ {
					p.acts = append(p.acts, int32(w>>(32*h)))
				}
			}
		default:
			continue
		}
		p.last, p.seq = e.Kind, e.Seq
		if p.acts != nil && len(p.acts) == cap(p.acts) {
			tr := &out[p.at]
			if p.nsel > 0 {
				tr.SelActions = p.acts[:p.nsel:p.nsel]
			}
			if len(p.acts) > p.nsel {
				tr.JoinActions = p.acts[p.nsel:]
			}
			complete[p.at] = true
			*p = partial{}
		}
	}
	kept := out[:0]
	for i := range out {
		if complete[i] {
			kept = append(kept, out[i])
		}
	}
	return kept[max(len(kept)-n, 0):]
}
