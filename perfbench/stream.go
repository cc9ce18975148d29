package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/roulette-db/roulette"
	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/host"
	"github.com/roulette-db/roulette/internal/job"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
)

// streamWorkload is an open loop: one generator goroutine submits queries
// on a seeded Poisson schedule into one long-lived stream, whatever the
// stream's progress; one collector goroutine takes the results.
type streamWorkload struct {
	scale      float64
	poolSize   int
	rate       float64 // offered queries per second
	maxQueries int     // StreamOptions.MaxQueries
	workers    int
	tenants    int // tag prefixes t0/ .. t<n-1>/
	goodput    time.Duration
	warmup     int // queries run during set-up
}

// fullBackoff is how long the generator waits before resubmitting a query
// the stream refused with ErrStreamFull.
const fullBackoff = 200 * time.Microsecond

// drainWait bounds how long a phase waits for its last results.
const drainWait = 60 * time.Second

type streamEnv struct {
	db     *storage.Database
	pool   []*query.Query
	ref    []int64
	st     *roulette.Stream
	cancel context.CancelFunc
}

// close stops the stream and its run context.
func (env *streamEnv) close() error {
	err := env.st.Close()
	env.cancel()
	return err
}

func (w *streamWorkload) options() *roulette.StreamOptions {
	return &roulette.StreamOptions{
		Options:    roulette.Options{Workers: w.workers, Seed: policySeed, DiscardRows: true},
		MaxQueries: w.maxQueries,
		// The zero value admits everything but runs the weighted-fair
		// scheduler and per-tenant accounting.
		Admission: &roulette.AdmissionOptions{},
	}
}

func tenantTag(tenant, i int) string { return fmt.Sprintf("t%d/%d", tenant, i) }

// tagIndex parses the arrival index out of a tenantTag; -1 for other tags.
func tagIndex(tag string) int {
	if !strings.HasPrefix(tag, "t") {
		return -1
	}
	_, num, ok := strings.Cut(tag, "/")
	if !ok {
		return -1
	}
	i, err := strconv.Atoi(num)
	if err != nil {
		return -1
	}
	return i
}

func (w *streamWorkload) setup(seed int64, ref []int64, times *setupTimes) (*streamEnv, error) {
	t0 := time.Now()
	env := &streamEnv{db: job.GenerateScaled(w.scale, seed), pool: job.Queries(w.poolSize, seed)}
	datagen := time.Since(t0)
	env.ref = ref
	if env.ref == nil {
		var err error
		if env.ref, err = referenceCounts(env.db, env.pool); err != nil {
			return nil, err
		}
	}

	t1 := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	st, err := roulette.NewEngineOn(env.db).OpenStream(ctx, w.options())
	if err != nil {
		cancel()
		return nil, err
	}
	env.st, env.cancel = st, cancel
	tickets := make([]*roulette.Ticket, w.warmup)
	for i := range tickets {
		q, err := publicQuery(env.pool[i%len(env.pool)])
		if err != nil {
			env.close()
			return nil, err
		}
		if tickets[i], err = st.Submit(q.WithTag(fmt.Sprintf("warm/%d", i))); err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up submit: %w", err)
		}
	}
	for i, t := range tickets {
		qr, err := t.Wait(context.Background())
		if err != nil || qr.Aborted || qr.Count != env.ref[i%len(env.pool)] {
			env.close()
			return nil, fmt.Errorf("warm-up query %d: count %d, want %d (err %v)", i, qr.Count, env.ref[i%len(env.pool)], err)
		}
	}
	times.add(datagen, time.Since(t1))
	return env, nil
}

func (w *streamWorkload) run(cfg config) (*report, error) {
	var times setupTimes
	var env *streamEnv
	for i := 0; i < setupRepeats; i++ {
		var ref []int64
		if env != nil {
			ref = env.ref
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if env, err = w.setup(cfg.seed, ref, &times); err != nil {
			return nil, err
		}
	}

	vals := map[string]float64{}
	times.into(vals, cfg.traced)
	var o outcome
	arr := poissonSchedule(cfg.seed, w.rate, cfg.duration, len(env.pool), w.tenants)
	recs, err := w.measurePublic(env, arr, &o)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if !cfg.traced {
		vals["peak_heap_mb"] = recs.peakHeapMB
		samples := recs.endToEnd(vals, w.goodput)
		fmt.Printf("# latency samples: %d queries, %d windows\n", samples, windows)
		return o.report(vals, false), nil
	}
	if err := w.measureTraced(env, cfg, arr, &o, vals, recs.latencyQuantile(0.5)); err != nil {
		return nil, err
	}
	return o.report(vals, true), nil
}

// streamRecs holds one phase's per-arrival timestamps and outcomes.
type streamRecs struct {
	arr      []arrival
	start    time.Time
	firstTry []time.Time // the generator's first Submit attempt
	// submitStart, submitEnd and retired are known only in the traced
	// phase: the accepted Submit call and the engine's retirement.
	submitStart, submitEnd, retired []time.Time
	recv                            []time.Time // the client holds the result
	ok                              []bool
	retries                         int64 // ErrStreamFull refusals
	submitted                       int64
	received                        atomic.Int64
	peakHeapMB                      float64
}

func newStreamRecs(arr []arrival) *streamRecs {
	n := len(arr)
	return &streamRecs{
		arr:         arr,
		firstTry:    make([]time.Time, n),
		submitStart: make([]time.Time, n),
		submitEnd:   make([]time.Time, n),
		retired:     make([]time.Time, n),
		recv:        make([]time.Time, n),
		ok:          make([]bool, n),
	}
}

func (r *streamRecs) due(i int) time.Time { return r.start.Add(r.arr[i].at) }

// generate runs the open loop on the calling goroutine: it sleeps until
// each arrival is due and submits it, retrying after fullBackoff while the
// stream is full. It returns once every arrival is submitted and every
// submitted query's result has been received (or drainWait passed).
func (r *streamRecs) generate(submit func(i int) error) {
	r.start = time.Now().Add(5 * time.Millisecond)
	for i := range r.arr {
		if d := time.Until(r.due(i)); d > 0 {
			time.Sleep(d)
		}
		r.firstTry[i] = time.Now()
		for {
			err := submit(i)
			if errors.Is(err, roulette.ErrStreamFull) {
				r.retries++
				time.Sleep(fullBackoff)
				continue
			}
			if err == nil {
				r.submitted++
			}
			break
		}
	}
	deadline := time.Now().Add(drainWait)
	for r.received.Load() < r.submitted && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// deliver records a result the client now holds.
func (r *streamRecs) deliver(i int, at time.Time, ok bool) {
	r.recv[i] = at
	r.ok[i] = ok
	r.received.Add(1)
}

func (r *streamRecs) answered() int {
	n := 0
	for i := range r.ok {
		if r.ok[i] {
			n++
		}
	}
	return n
}

func (r *streamRecs) latencies(tenant int) []float64 {
	var out []float64
	for i := range r.arr {
		if r.ok[i] && (tenant < 0 || r.arr[i].tenant == tenant) {
			out = append(out, ms(r.recv[i].Sub(r.due(i))))
		}
	}
	return out
}

func (r *streamRecs) latencyQuantile(q float64) float64 { return quantile(r.latencies(-1), q) }

// endToEnd fills the phase's end-to-end metrics. Latency is timed from
// the scheduled due time, so generator lateness and ErrStreamFull waits
// count against the engine; a query that never answered correctly counts
// only toward the window it was due in.
func (r *streamRecs) endToEnd(vals map[string]float64, limit time.Duration) int64 {
	units := make([]unit, len(r.arr))
	for i := range r.arr {
		u := unit{due: r.due(i), done: r.due(i), n: 1}
		if r.ok[i] {
			u.done, u.ok = r.recv[i], 1
			if u.done.Sub(u.due) <= limit {
				u.good = 1
			}
		}
		units[i] = u
	}
	return fillEndToEnd(units, vals)
}

// collect tallies the phase's answers into o.
func (r *streamRecs) collect(o *outcome) {
	o.attempted += int64(len(r.arr))
	o.failed += int64(len(r.arr) - r.answered())
}

// measurePublic runs the schedule through OpenStream/Submit, taking
// results from Stream.Results on one collector goroutine.
func (w *streamWorkload) measurePublic(env *streamEnv, arr []arrival, o *outcome) (*streamRecs, error) {
	qs := make([]*roulette.Query, len(arr))
	for i, a := range arr {
		q, err := publicQuery(env.pool[a.pool])
		if err != nil {
			return nil, err
		}
		qs[i] = q.WithTag(tenantTag(a.tenant, i))
	}
	recs := newStreamRecs(arr)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results := env.st.Results()
		for {
			select {
			case <-stop:
				return
			case qr, ok := <-results:
				if !ok {
					return
				}
				i := tagIndex(qr.Tag)
				if i < 0 || i >= len(arr) {
					continue // a warm-up query
				}
				recs.deliver(i, time.Now(), !qr.Aborted && qr.Err == nil && qr.Count == env.ref[arr[i].pool])
			}
		}
	}()
	heap := startHeapSampler(time.Millisecond)
	recs.generate(func(i int) error {
		_, err := env.st.Submit(qs[i])
		return err
	})
	recs.peakHeapMB = heap.Stop()
	close(stop)
	wg.Wait()
	recs.collect(o)
	return recs, nil
}

// retirement is one query's terminal status as the engine reported it.
type retirement struct {
	idx   int // arrival index; len(arr)+k for the k-th warm-up query
	at    time.Time
	ok    bool
	count int64
}

// measureTraced replays the schedule into a streaming engine session wired
// as OpenStream wires it — same executor options, workers, query capacity
// and tenants, with the flight recorder on — but with the learned policy
// wrapped in timedPolicy, and every Submit and retirement timed.
func (w *streamWorkload) measureTraced(env *streamEnv, cfg config, arr []arrival, o *outcome,
	vals map[string]float64, untracedP50 float64) error {
	opt := exec.DefaultOptions()
	opt.CollectRows = false
	opt.CollectStats = true
	fl := newFlight(w.workers)
	qcfg := qlearn.DefaultConfig()
	qcfg.Seed = policySeed
	pol := newTimedPolicy(qlearn.New(qcfg))

	var (
		mu        sync.Mutex
		idxOf     = map[int]int{}        // live query id -> arrival index
		early     = map[int]retirement{} // retired before idxOf was set
		retiredAt = map[int]time.Time{}  // query id -> retirement, until reclaimed
		gcMs      []float64              // retirement -> slot reclaimed
		// One send per submitted query, so the engine's callback never blocks.
		resCh = make(chan retirement, len(arr)+w.warmup)
		sess  *engine.Session
	)
	b := query.NewStreamBatch(w.maxQueries)
	ecfg := engine.Config{
		Exec: opt, Workers: w.workers, Policy: pol, Streaming: true, Recorder: fl.rec,
		OnRetire: func(qid int, st engine.QueryStatus) {
			src := sess.Context().Sources[qid]
			ret := retirement{at: time.Now(), ok: st.Completed, count: src.Count()}
			if st.Completed {
				if _, err := host.Consume(env.db, b, qid, src); err != nil {
					ret.ok = false
				}
			}
			mu.Lock()
			retiredAt[qid] = ret.at
			idx, found := idxOf[qid]
			if found {
				delete(idxOf, qid)
			} else {
				early[qid] = ret
			}
			mu.Unlock()
			if found {
				ret.idx = idx
				resCh <- ret
			}
		},
		OnReclaim: func(qids []int) {
			now := time.Now()
			mu.Lock()
			for _, q := range qids {
				if t, ok := retiredAt[q]; ok {
					gcMs = append(gcMs, ms(now.Sub(t)))
					delete(retiredAt, q)
				}
			}
			mu.Unlock()
		},
	}
	var err error
	if sess, err = engine.NewSession(b, env.db, ecfg); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var runRes *engine.Results
	var runErr error
	runDone := make(chan struct{})
	go func() {
		runRes, runErr = sess.RunContext(ctx)
		close(runDone)
	}()
	defer func() {
		cancel()
		<-runDone
	}()

	poolOf := func(idx int) int {
		if idx < len(arr) {
			return arr[idx].pool
		}
		return (idx - len(arr)) % len(env.pool)
	}
	submit := func(idx int, tenant string) (time.Time, time.Time, error) {
		if sess.FreeQuerySlots() == 0 {
			return time.Time{}, time.Time{}, roulette.ErrStreamFull
		}
		cp := *env.pool[poolOf(idx)]
		start := time.Now()
		qid, err := sess.SubmitLiveMeta(&cp, engine.SubmitMeta{Tenant: tenant, Weight: 1})
		end := time.Now()
		if err != nil {
			return start, end, err
		}
		mu.Lock()
		ret, done := early[qid]
		if done {
			delete(early, qid)
		} else {
			idxOf[qid] = idx
		}
		mu.Unlock()
		if done {
			ret.idx = idx
			resCh <- ret
		}
		return start, end, nil
	}
	correct := func(r retirement) bool { return r.ok && r.count == env.ref[poolOf(r.idx)] }

	// Warm up as the public stream was warmed up.
	for k := 0; k < w.warmup; k++ {
		if _, _, err := submit(len(arr)+k, "warm"); err != nil {
			return fmt.Errorf("warm-up submit: %w", err)
		}
	}
	for k := 0; k < w.warmup; k++ {
		if r := <-resCh; !correct(r) {
			return fmt.Errorf("warm-up query %d: wrong or failed answer", r.idx-len(arr))
		}
	}

	recs := newStreamRecs(arr)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case r := <-resCh:
				recs.retired[r.idx] = r.at
				recs.deliver(r.idx, time.Now(), correct(r))
			}
		}
	}()
	// The drainer folds flight-recorder events before the rings wrap and
	// samples STeM memory and the Q-table size.
	var stemPeak int64
	qstates := 0
	sample := func() {
		fl.drain()
		var bytes int64
		for _, st := range sess.StemSnapshot() {
			bytes += st.EstBytes
		}
		if bytes > stemPeak {
			stemPeak = bytes
		}
		if n := pol.TableSize(); n > qstates {
			qstates = n
		}
	}
	sample()
	ep0 := len(fl.episodeUs)
	pol0 := pol.times()
	mem0 := readMem()
	drainStop := make(chan struct{})
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-drainStop:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	recs.generate(func(i int) error {
		start, end, err := submit(i, fmt.Sprintf("t%d", arr[i].tenant))
		if err == nil {
			recs.submitStart[i], recs.submitEnd[i] = start, end
		}
		return err
	})
	mem := diffMem(mem0, readMem())
	elapsed := time.Since(recs.start)
	close(stop)
	wg.Wait()
	close(drainStop)
	drainWG.Wait()
	sample()
	phaseEpisodes := fl.episodeUs[ep0:]
	sess.CloseSubmit()
	<-runDone
	if runErr != nil {
		return runErr
	}
	sample()
	fl.warnLost()
	recs.collect(o)
	var stemFinal int64
	for _, st := range sess.StemSnapshot() {
		stemFinal += st.EstBytes
	}

	tr := newTracer()
	var submitUs []float64
	for i := range arr {
		if recs.recv[i].IsZero() {
			continue
		}
		root := tr.add("query", int64(i), -1, recs.due(i), recs.recv[i])
		tr.add("queue", int64(i), root, recs.due(i), recs.submitStart[i])
		tr.add("submit", int64(i), root, recs.submitStart[i], recs.submitEnd[i])
		tr.add("execute", int64(i), root, recs.submitEnd[i], recs.retired[i])
		tr.add("deliver", int64(i), root, recs.retired[i], recs.recv[i])
		submitUs = append(submitUs, float64(recs.submitEnd[i].Sub(recs.submitStart[i]))/1e3)
	}
	path, err := tr.write(cfg.outDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	fmt.Printf("# spans: %s\n", path)
	self := tr.selfTimes()
	vals["trace.unaccounted_frac"] = ratio(float64(self["query"]), float64(tr.rootTime()))
	vals["trace.overhead_frac"] = ratio(recs.latencyQuantile(0.5), untracedP50) - 1

	nq := float64(len(arr) + w.warmup)
	eps := float64(runRes.Episodes)
	workerNs := float64(w.workers) * float64(elapsed)
	vals["engine.submit_us_p50"] = quantile(submitUs, 0.5)
	vals["engine.submit_us_p90"] = quantile(submitUs, 0.9)
	vals["engine.admit_wait_ms_p50"] = quantile(fl.admitWait, 0.5)
	vals["engine.slot_full_retries"] = float64(recs.retries)
	vals["engine.gc_quanta"] = float64(fl.gcQuanta)
	mu.Lock()
	vals["engine.gc_ms"] = quantile(gcMs, 0.5)
	mu.Unlock()
	vals["engine.fence_wait_ms"] = ratio(ms(fl.fenceAge), float64(fl.fences))
	vals["engine.episodes_per_query"] = eps / nq
	var busyUs float64
	for _, us := range phaseEpisodes {
		busyUs += us
	}
	phaseEps := float64(len(phaseEpisodes))
	vals["engine.episode_us_p50"] = quantile(phaseEpisodes, 0.5)
	vals["engine.episode_us_p90"] = quantile(phaseEpisodes, 0.9)
	vals["engine.worker_busy_frac"] = ratio(busyUs*1e3, workerNs)

	pt := pol.times()
	pt.chooseN -= pol0.chooseN
	pt.chooseNs -= pol0.chooseNs
	pt.observeN -= pol0.observeN
	pt.observeNs -= pol0.observeNs
	setPolicyMetrics(vals, pt, phaseEps, workerNs)
	explores, exploits := pol.ActionCounts()
	vals["qlearn.explore_frac"] = ratio(float64(explores), float64(explores+exploits))
	vals["qlearn.q_states"] = float64(qstates)

	st := &sess.Context().Stats
	vals["exec.filter_ns_per_tuple"] = ratio(float64(st.FilterNs.Load()), float64(st.SelOut.Load()))
	vals["exec.build_ns_per_tuple"] = ratio(float64(st.BuildNs.Load()), float64(st.Inserted.Load()))
	vals["exec.probe_ns_per_tuple"] = ratio(float64(st.ProbeNs.Load()), float64(st.JoinOut.Load()))
	vals["exec.router_ns_per_episode"] = ratio(float64(st.RouteNs.Load()), eps)
	vals["exec.sharing_factor"] = ratio(float64(st.SharedOps.Load()), float64(st.TotalOps()))
	vals["exec.intermediate_tuples_per_query"] = float64(runRes.JoinTuples) / nq

	var probes, matches int64
	for _, s := range sess.StemSnapshot() {
		probes += s.Probes
		matches += s.Matches
	}
	vals["stem.probe_hit_rate"] = ratio(float64(matches), float64(probes))
	vals["stem.peak_mb"] = float64(stemPeak) / (1 << 20)
	vals["stem.reclaim_frac"] = 1 - ratio(float64(stemFinal), float64(stemPeak))

	slow, fast := 0.0, 0.0
	for t := 0; t < w.tenants; t++ {
		p50 := quantile(recs.latencies(t), 0.5)
		if t == 0 || p50 > slow {
			slow = p50
		}
		if t == 0 || p50 < fast {
			fast = p50
		}
	}
	vals["admission.tenant_p50_ratio"] = ratio(slow, fast)

	late := make([]float64, len(arr))
	maxLate := 0.0
	for i := range arr {
		late[i] = ms(recs.firstTry[i].Sub(recs.due(i)))
		if late[i] > maxLate {
			maxLate = late[i]
		}
	}
	vals["gen.late_ms_p90"] = quantile(late, 0.9)
	vals["gen.late_ms_max"] = maxLate
	// Counted over the generator phase, which includes the recorder drains.
	setRuntimeMetrics(vals, mem, phaseEps, elapsed)
	return nil
}
