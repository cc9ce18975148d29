package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/roulette-db/roulette"
	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/host"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/value"
)

// batchWorkload is a closed loop: one client makes ExecuteBatch calls
// back to back, each batch drawn from a seeded pool. Every query of a
// batch is due when the batch is sent.
type batchWorkload struct {
	scale      float64
	genDB      func(scale float64, seed int64) *storage.Database
	genPool    func(seed int64) []*query.Query
	batchSize  int
	workers    int
	countsOnly bool // Options.DiscardRows
	withStore  bool // attach a PolicyStore
	recurring  bool // batches are contiguous pool windows, so templates recur
	goodput    time.Duration
	warmup     int // batches run during set-up
	// dbSeed, when non-zero, fixes the database seed; --seed then draws
	// only the query pool and the batch sequence.
	dbSeed int64
}

// batchEnv is one set-up of a batch workload.
type batchEnv struct {
	db    *storage.Database
	pool  []*query.Query
	pub   []*roulette.Query
	ref   []int64
	eng   *roulette.Engine
	store *roulette.PolicyStore
	opts  *roulette.Options
}

// nextBatch draws the pool indexes of the next batch.
func (w *batchWorkload) nextBatch(rng *rand.Rand, n int) []int {
	idx := make([]int, w.batchSize)
	switch {
	case w.recurring:
		start := rng.Intn(n)
		for j := range idx {
			idx[j] = (start + j) % n
		}
	case w.batchSize == 1:
		idx[0] = rng.Intn(n)
	default:
		copy(idx, rng.Perm(n)[:w.batchSize])
	}
	return idx
}

// setup generates the data and pool and builds the engine, the policy
// store and a warmed-up policy. ref is computed on the first set-up only,
// outside the timed phases.
func (w *batchWorkload) setup(seed int64, ref []int64, times *setupTimes) (*batchEnv, error) {
	t0 := time.Now()
	dbSeed := seed
	if w.dbSeed != 0 {
		dbSeed = w.dbSeed
	}
	env := &batchEnv{db: w.genDB(w.scale, dbSeed), pool: w.genPool(seed)}
	datagen := time.Since(t0)

	env.ref = ref
	if env.ref == nil {
		var err error
		if env.ref, err = referenceCounts(env.db, env.pool); err != nil {
			return nil, err
		}
	}

	t1 := time.Now()
	var err error
	if env.pub, err = publicQueries(env.pool); err != nil {
		return nil, err
	}
	env.eng = roulette.NewEngineOn(env.db)
	env.opts = &roulette.Options{Workers: w.workers, Seed: policySeed, DiscardRows: w.countsOnly}
	if w.withStore {
		if env.store, err = roulette.NewPolicyStore(roulette.PolicyStoreOptions{}); err != nil {
			return nil, err
		}
		env.opts.PolicyStore = env.store
	}
	rng := rand.New(rand.NewSource(seed + 1))
	var o outcome
	for i := 0; i < w.warmup; i++ {
		w.runPublic(env, w.nextBatch(rng, len(env.pool)), &o)
	}
	if o.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d answers differ from the reference", o.failed, o.attempted)
	}
	times.add(datagen, time.Since(t1))
	return env, nil
}

// runPublic executes one batch through ExecuteBatch and checks it; an
// error fails every query of the batch. It returns the batch's wall time.
func (w *batchWorkload) runPublic(env *batchEnv, idx []int, o *outcome) time.Duration {
	qs := make([]*roulette.Query, len(idx))
	for i, p := range idx {
		qs[i] = env.pub[p]
	}
	t := time.Now()
	res, err := env.eng.ExecuteBatch(qs, env.opts)
	wall := time.Since(t)
	o.attempted += int64(len(idx))
	if err != nil {
		o.failed += int64(len(idx))
		return wall
	}
	for i, p := range idx {
		qr := &res.Queries[i]
		if qr.Aborted || qr.Err != nil || !env.matches(p, qr.Count, groupSum(qr.Groups)) {
			o.failed++
		}
	}
	return wall
}

func groupSum(gs []roulette.Group) int64 {
	var s int64
	for _, g := range gs {
		s += g.Value
	}
	return s
}

// matches checks pool query p's count, and for a grouped query the sum of
// its group counts, against the reference.
func (env *batchEnv) matches(p int, count, groups int64) bool {
	want := env.ref[p]
	if count != want {
		return false
	}
	return env.pool[p].Agg.GroupByAlias == "" || groups == want
}

func (w *batchWorkload) run(cfg config) (*report, error) {
	var times setupTimes
	var env *batchEnv
	for i := 0; i < setupRepeats; i++ {
		var ref []int64
		if env != nil {
			ref = env.ref
		}
		var err error
		if env, err = w.setup(cfg.seed, ref, &times); err != nil {
			return nil, err
		}
	}

	e2e := map[string]float64{}
	var o outcome
	untraced := w.measurePublic(env, cfg, &o, e2e)
	if !cfg.traced {
		times.into(e2e, false)
		return o.report(e2e, false), nil
	}
	layers := map[string]float64{}
	times.into(layers, true)
	if err := w.measureTraced(env, cfg, &o, layers, untraced); err != nil {
		return nil, err
	}
	return o.report(layers, true), nil
}

// measurePublic is the untraced closed loop. It fills the end-to-end
// metrics and returns the median batch wall time.
func (w *batchWorkload) measurePublic(env *batchEnv, cfg config, o *outcome, vals map[string]float64) time.Duration {
	rng := rand.New(rand.NewSource(cfg.seed))
	var units []unit
	var walls []float64
	heap := startHeapSampler(time.Millisecond)
	start := time.Now()
	for time.Since(start) < cfg.duration {
		idx := w.nextBatch(rng, len(env.pool))
		failedBefore := o.failed
		due := time.Now()
		wall := w.runPublic(env, idx, o)
		u := unit{due: due, done: due.Add(wall), n: int64(len(idx))}
		u.ok = u.n - (o.failed - failedBefore)
		if wall <= w.goodput {
			u.good = u.ok
		}
		units = append(units, u)
		walls = append(walls, ms(wall))
	}
	vals["peak_heap_mb"] = heap.Stop()
	samples := fillEndToEnd(units, vals)
	fmt.Printf("# latency samples: %d queries in %d batches of %d, %d windows\n", samples, len(units), w.batchSize, windows)
	return time.Duration(quantile(walls, 0.5) * float64(time.Millisecond))
}

// traceTotals accumulates the traced run's per-batch counters.
type traceTotals struct {
	batches, queries, episodes, joinTuples int64
	stats                                  engine.BatchStats
	qstates                                int64
	stemPeak, stemProbes, stemMatches      int64
	pol                                    policyTimes
	warmQueries                            int64
	walls                                  []float64
}

// measureTraced replays the same batches through the layers ExecuteBatch
// calls — query.Compile, engine.NewSession, the policy store, Session.Run
// and the host consumer — timing each from outside with spans, wrapping the
// policy in timedPolicy and reading the engine's own counters.
func (w *batchWorkload) measureTraced(env *batchEnv, cfg config, o *outcome, vals map[string]float64, untraced time.Duration) error {
	opt := exec.DefaultOptions()
	opt.CollectRows = !w.countsOnly
	opt.CollectStats = true
	fl := newFlight(w.workers)
	tr := newTracer()
	var acc traceTotals
	var storeHits0, storeMiss0 uint64
	if env.store != nil {
		st := env.store.Stats()
		storeHits0, storeMiss0 = st.Hits, st.Misses
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	// Draining the recorder allocates; keep that out of the runtime
	// metrics. Drain before any ring can wrap.
	var drainMem memDelta
	drained := int64(0)
	drain := func() {
		m0 := readMem()
		fl.drain()
		d := diffMem(m0, readMem())
		drainMem.mallocs += d.mallocs
		drainMem.bytes += d.bytes
		drained = acc.episodes
	}
	mem0 := readMem()
	start := time.Now()
	for req := int64(0); time.Since(start) < cfg.duration; req++ {
		idx := w.nextBatch(rng, len(env.pool))
		if err := w.tracedBatch(env, idx, req, opt, fl, tr, &acc, o); err != nil {
			return err
		}
		if acc.episodes-drained > flightRingSize/4 {
			drain()
		}
	}
	elapsed := time.Since(start)
	mem := diffMem(mem0, readMem())
	drain()
	fl.warnLost()
	mem.mallocs -= drainMem.mallocs
	mem.bytes -= drainMem.bytes

	path, err := tr.write(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	fmt.Printf("# spans: %s\n", path)
	self := tr.selfTimes()
	nb, nq, ne := float64(acc.batches), float64(acc.queries), float64(acc.episodes)
	runNs := float64(self["run"])
	workerNs := runNs * float64(w.workers)
	st := &acc.stats

	vals["query.compile_us_per_query"] = float64(self["compile"]) / 1e3 / nq
	vals["exec.session_ms_per_batch"] = float64(self["session"]) / 1e6 / nb
	vals["engine.run_ms_per_batch"] = runNs / 1e6 / nb
	vals["host.result_ms_per_batch"] = float64(self["result"]) / 1e6 / nb
	vals["policystore.ms_per_batch"] = float64(self["policystore"]) / 1e6 / nb
	vals["trace.unaccounted_frac"] = ratio(float64(self["batch"]), float64(tr.rootTime()))
	vals["trace.overhead_frac"] = ratio(quantile(acc.walls, 0.5), ms(untraced)) - 1

	vals["engine.episodes_per_query"] = ne / nq
	vals["engine.episode_us_p50"] = quantile(fl.episodeUs, 0.5)
	vals["engine.episode_us_p90"] = quantile(fl.episodeUs, 0.9)
	vals["engine.worker_busy_frac"] = ratio(float64(fl.busy), workerNs)

	setPolicyMetrics(vals, acc.pol, ne, workerNs)
	vals["qlearn.explore_frac"] = ratio(float64(st.Policy.Explores), float64(st.Policy.Explores+st.Policy.Exploits))
	vals["qlearn.q_states"] = float64(acc.qstates) / nb

	vals["exec.filter_ns_per_tuple"] = ratio(float64(st.Filters.Nanos), float64(st.Filters.Tuples))
	vals["exec.build_ns_per_tuple"] = ratio(float64(st.Builds.Nanos), float64(st.Builds.Tuples))
	vals["exec.probe_ns_per_tuple"] = ratio(float64(st.Probes.Nanos), float64(st.Probes.Tuples))
	vals["exec.router_ns_per_episode"] = ratio(float64(st.Routers.Nanos), ne)
	vals["exec.sharing_factor"] = st.Sharing.Factor()
	vals["exec.intermediate_tuples_per_query"] = float64(acc.joinTuples) / nq

	vals["stem.probe_hit_rate"] = ratio(float64(acc.stemMatches), float64(acc.stemProbes))
	vals["stem.peak_mb"] = float64(acc.stemPeak) / (1 << 20)
	// A batch session's STeMs are released whole when the batch returns.
	vals["stem.reclaim_frac"] = 1

	if env.store != nil {
		st := env.store.Stats()
		hits, misses := st.Hits-storeHits0, st.Misses-storeMiss0
		vals["policystore.hit_frac"] = ratio(float64(hits), float64(hits+misses))
		vals["policystore.warm_queries_frac"] = float64(acc.warmQueries) / nq
	}
	setRuntimeMetrics(vals, mem, ne, elapsed)
	return nil
}

// tracedBatch runs one batch through the layers under spans.
func (w *batchWorkload) tracedBatch(env *batchEnv, idx []int, req int64, opt exec.Options,
	fl *flight, tr *tracer, acc *traceTotals, o *outcome) error {
	root := tr.begin("batch", req, -1)

	sp := tr.begin("compile", req, root)
	qs := make([]*query.Query, len(idx))
	for i, p := range idx {
		cp := *env.pool[p]
		qs[i] = &cp
	}
	b, err := query.Compile(qs)
	tr.end(sp)
	if err != nil {
		return err
	}

	sp = tr.begin("session", req, root)
	qcfg := qlearn.DefaultConfig()
	qcfg.Seed = policySeed
	learned := qlearn.New(qcfg)
	pol := newTimedPolicy(learned)
	s, err := engine.NewSession(b, env.db, engine.Config{Exec: opt, Workers: w.workers, Policy: pol, Recorder: fl.rec})
	tr.end(sp)
	if err != nil {
		return err
	}

	all := bitset.NewFull(b.N)
	if env.store != nil {
		sp = tr.begin("policystore", req, root)
		if env.store.Import(learned, b, s.Context(), all) > 0 {
			acc.warmQueries += int64(b.N)
		}
		tr.end(sp)
	}

	sp = tr.begin("run", req, root)
	res, err := s.Run()
	tr.end(sp)
	if err != nil {
		return err
	}

	if env.store != nil {
		sp = tr.begin("policystore", req, root)
		env.store.Export(learned, b, s.Context(), all)
		tr.end(sp)
	}

	sp = tr.begin("result", req, root)
	hostRes, err := host.ConsumeAll(env.db, b, s.Context())
	if err == nil {
		decodeLabels(env.db, b, hostRes)
	}
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return err
	}
	acc.walls = append(acc.walls, float64(tr.spans[root].End-tr.spans[root].Start)/1e6)

	o.attempted += int64(len(idx))
	for i, p := range idx {
		var groups int64
		for _, g := range hostRes[i].Groups {
			groups += g.Value
		}
		if !res.Status[i].Completed || !env.matches(p, res.Counts[i], groups) {
			o.failed++
		}
	}

	acc.batches++
	acc.queries += int64(len(idx))
	acc.episodes += res.Episodes
	acc.joinTuples += res.JoinTuples
	acc.pol.add(pol.times())
	addBatchStats(&acc.stats, res.Stats)
	acc.qstates += int64(res.Stats.Policy.QStates)
	var stemBytes int64
	for _, st := range res.Stats.Stems {
		stemBytes += st.EstBytes
		acc.stemProbes += st.Probes
		acc.stemMatches += st.Matches
	}
	if stemBytes > acc.stemPeak {
		acc.stemPeak = stemBytes
	}
	return nil
}

// decodeLabels resolves string group keys to their dictionary values, as
// the public API's result assembly does, and returns the labels per query.
func decodeLabels(db *storage.Database, b *query.Batch, res []*host.Result) [][]string {
	labels := make([][]string, len(res))
	for qid, r := range res {
		q := b.Queries[qid]
		if q.Agg.GroupByAlias == "" {
			continue
		}
		inst, ok := b.InstOfAlias(qid, q.Agg.GroupByAlias)
		if !ok {
			continue
		}
		rel := db.Schema.Relation(b.Insts[inst].Table)
		c := rel.Column(q.Agg.GroupByCol)
		if c == nil || c.Dict == nil {
			continue
		}
		labels[qid] = make([]string, len(r.Groups))
		for i, g := range r.Groups {
			if g.Key != value.NullCode {
				labels[qid][i] = c.Dict.Value(g.Key)
			}
		}
	}
	return labels
}

// addBatchStats sums b's operator, sharing and policy counters into a.
func addBatchStats(a, b *engine.BatchStats) {
	for _, p := range []struct{ a, b *engine.OpClassStats }{
		{&a.Filters, &b.Filters}, {&a.Builds, &b.Builds}, {&a.Probes, &b.Probes}, {&a.Routers, &b.Routers},
	} {
		p.a.Invocations += p.b.Invocations
		p.a.Tuples += p.b.Tuples
		p.a.Nanos += p.b.Nanos
	}
	a.Sharing.SharedOps += b.Sharing.SharedOps
	a.Sharing.TotalOps += b.Sharing.TotalOps
	a.Sharing.QueriesServed += b.Sharing.QueriesServed
	a.Policy.Explores += b.Policy.Explores
	a.Policy.Exploits += b.Policy.Exploits
}

// setPolicyMetrics derives the qlearn layer's numbers from the wrapper's
// counters. workerNs is the worker time the policy ran inside.
func setPolicyMetrics(vals map[string]float64, p policyTimes, episodes, workerNs float64) {
	vals["qlearn.decisions_per_episode"] = ratio(float64(p.chooseN), episodes)
	vals["qlearn.choose_ns_per_decision"] = ratio(float64(p.chooseNs), float64(p.chooseN))
	vals["qlearn.observe_us_per_episode"] = ratio(float64(p.observeNs), float64(p.observeN)) / 1e3
	vals["qlearn.policy_share"] = ratio(float64(p.chooseNs+p.observeNs), workerNs)
}

// setRuntimeMetrics derives the Go runtime's numbers over a measured phase.
func setRuntimeMetrics(vals map[string]float64, m memDelta, episodes float64, elapsed time.Duration) {
	vals["runtime.allocs_per_episode"] = ratio(float64(m.mallocs), episodes)
	vals["runtime.bytes_per_episode"] = ratio(float64(m.bytes), episodes)
	vals["runtime.gc_cycles_per_s"] = float64(m.gcs) / elapsed.Seconds()
	vals["runtime.gc_pause_ms"] = ratio(ms(m.pause), float64(m.gcs))
}
