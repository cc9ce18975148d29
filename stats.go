package roulette

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/metrics"
)

// OpClassStats aggregates one operator class's work across the batch.
// Tuples is the class's natural output unit: survivors for filters, inserted
// entries for builds, join outputs for probes, routed rows for routers.
type OpClassStats struct {
	Invocations int64 `json:"invocations"`
	Tuples      int64 `json:"tuples"`
	Nanos       int64 `json:"nanos"`
}

// QueryStats is one query's share of the batch execution.
type QueryStats struct {
	Tag string `json:"tag"`
	// Episodes is the number of episodes whose active set included the
	// query (its share of shared scan work).
	Episodes int64 `json:"episodes"`
	// Tuples is the query's SPJ result cardinality.
	Tuples int64 `json:"tuples"`
	// Elapsed is batch start → the query's last input vector scheduled.
	Elapsed   time.Duration `json:"elapsed_ns"`
	Completed bool          `json:"completed"`
}

// StemStats describes one relation instance's STeM (shared join state).
type StemStats struct {
	Table    string `json:"table"`
	Entries  int64  `json:"entries"`
	Inserts  int64  `json:"inserts"`
	Probes   int64  `json:"probes"`
	Matches  int64  `json:"matches"`
	EstBytes int64  `json:"est_bytes"`
}

// HitRate returns the average match tuples emitted per probe lookup against
// this STeM (0 with no probes; above 1 means key fan-out).
func (s StemStats) HitRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Matches) / float64(s.Probes)
}

// PolicyStats summarizes the planning policy's behaviour over the batch.
// Explores and Exploits stay zero for policies without decision counters
// (the learned policy implements them).
type PolicyStats struct {
	// QStates is the number of explored Q-table (state, action) entries.
	QStates int `json:"qtable_states"`
	// Explores counts ε-random decisions, Exploits greedy ones.
	Explores int64 `json:"explore_actions"`
	Exploits int64 `json:"exploit_actions"`
	// PlanSwitches counts episodes whose chosen operator sequence differed
	// from the previous episode on the same relation — how often the policy
	// changed its mind mid-run.
	PlanSwitches int64 `json:"plan_switches"`
}

// SharingStats quantifies cross-query work sharing. An invocation is one
// operator applied to one vector; it is shared when it served more than one
// query at once.
type SharingStats struct {
	SharedOps     int64 `json:"shared_op_invocations"`
	TotalOps      int64 `json:"op_invocations"`
	QueriesServed int64 `json:"queries_served"`
}

// Factor returns the shared fraction of operator invocations in [0, 1].
func (s SharingStats) Factor() float64 {
	if s.TotalOps == 0 {
		return 0
	}
	return float64(s.SharedOps) / float64(s.TotalOps)
}

// FanOut returns the mean number of queries served per invocation.
func (s SharingStats) FanOut() float64 {
	if s.TotalOps == 0 {
		return 0
	}
	return float64(s.QueriesServed) / float64(s.TotalOps)
}

// Stats is the execution breakdown attached to a BatchResult when
// Options.CollectStats is set.
type Stats struct {
	Queries []QueryStats `json:"queries"`

	Filters OpClassStats `json:"filters"` // grouped + prune filters (selection phase)
	Builds  OpClassStats `json:"builds"`  // STeM inserts
	Probes  OpClassStats `json:"probes"`  // STeM probe operators
	// RouteSels counts routing selections; their time is attributed to
	// Probes.Nanos, matching the cost model's join-phase accounting.
	RouteSels OpClassStats `json:"route_sels"`
	Routers   OpClassStats `json:"routers"`

	Stems   []StemStats  `json:"stems"`
	Policy  PolicyStats  `json:"policy"`
	Sharing SharingStats `json:"sharing"`
}

// Summary renders a compact multi-line overview.
func (s *Stats) Summary() string {
	var b strings.Builder
	completed := 0
	for _, q := range s.Queries {
		if q.Completed {
			completed++
		}
	}
	fmt.Fprintf(&b, "queries: %d/%d completed\n", completed, len(s.Queries))
	fmt.Fprintf(&b, "ops: filter=%d build=%d probe=%d routesel=%d route=%d\n",
		s.Filters.Invocations, s.Builds.Invocations, s.Probes.Invocations,
		s.RouteSels.Invocations, s.Routers.Invocations)
	fmt.Fprintf(&b, "tuples: filtered=%d inserted=%d joined=%d routed=%d\n",
		s.Filters.Tuples, s.Builds.Tuples, s.Probes.Tuples, s.Routers.Tuples)
	var stemBytes int64
	for _, st := range s.Stems {
		stemBytes += st.EstBytes
	}
	fmt.Fprintf(&b, "stems: %d instances, ~%.1f MiB\n", len(s.Stems), float64(stemBytes)/(1<<20))
	fmt.Fprintf(&b, "policy: %d Q-states, %d explore / %d exploit, %d plan switches\n",
		s.Policy.QStates, s.Policy.Explores, s.Policy.Exploits, s.Policy.PlanSwitches)
	fmt.Fprintf(&b, "sharing: factor %.2f, fan-out %.1f queries/op\n",
		s.Sharing.Factor(), s.Sharing.FanOut())
	return b.String()
}

// newStats converts the engine breakdown to the public shape.
func newStats(bs *engine.BatchStats, tags []string) *Stats {
	out := &Stats{
		Filters:   OpClassStats(bs.Filters),
		Builds:    OpClassStats(bs.Builds),
		Probes:    OpClassStats(bs.Probes),
		RouteSels: OpClassStats(bs.RouteSels),
		Routers:   OpClassStats(bs.Routers),
		Policy: PolicyStats{
			QStates:      bs.Policy.QStates,
			Explores:     bs.Policy.Explores,
			Exploits:     bs.Policy.Exploits,
			PlanSwitches: bs.Policy.PlanSwitches,
		},
		Sharing: SharingStats{
			SharedOps:     bs.Sharing.SharedOps,
			TotalOps:      bs.Sharing.TotalOps,
			QueriesServed: bs.Sharing.QueriesServed,
		},
	}
	out.Queries = make([]QueryStats, len(bs.Queries))
	for i, q := range bs.Queries {
		out.Queries[i] = QueryStats{
			Tag:       tags[i],
			Episodes:  q.Episodes,
			Tuples:    q.Tuples,
			Elapsed:   q.Elapsed,
			Completed: q.Completed,
		}
	}
	out.Stems = make([]StemStats, len(bs.Stems))
	for i, st := range bs.Stems {
		out.Stems[i] = StemStats(st)
	}
	return out
}

// EpisodeTrace is one traced episode (Options.TraceEpisodes): the scanned
// relation, active query count, input and join-input sizes, cost,
// duration, fault class, and the chosen selection and join actions.
type EpisodeTrace = engine.EpisodeTrace

// WriteTraceJSONL writes the batch's episode trace as JSON Lines, one
// episode per line, oldest first.
func (r *BatchResult) WriteTraceJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range r.trace {
		if err := enc.Encode(&r.trace[i]); err != nil {
			return err
		}
	}
	return nil
}

// MetricsHandler returns an http.Handler exposing process-wide engine
// metrics, accumulated across every batch run in this process. It serves
// the Prometheus text exposition format by default and JSON when the
// request has ?format=json or an Accept header preferring application/json.
//
//	http.Handle("/metrics", roulette.MetricsHandler())
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		reg := metrics.Default()
		format := req.URL.Query().Get("format")
		if format == "json" || (format == "" && strings.Contains(req.Header.Get("Accept"), "application/json")) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(reg.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteProm(w)
	})
}
