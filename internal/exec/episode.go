package exec

import (
	"math/bits"
	"time"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/cost"
	"github.com/roulette-db/roulette/internal/plan"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
	"github.com/roulette-db/roulette/internal/value"
)

// EpisodeInput is the work item for one episode: one ingested vector, the
// query set actively scanning its relation, the version slot assigned to
// the episode, and the currently available selection operators.
type EpisodeInput struct {
	Inst   query.InstID
	VIDs   []int32
	Active bitset.Set
	Slot   stem.Slot
	SelOps []plan.SelOpInfo
}

// jvec is a join-phase intermediate vector in the Data-Query model: one vID
// column per present lineage instance plus a per-tuple query-set slab.
type jvec struct {
	insts []query.InstID
	vids  [][]int32
	qsets []uint64 // n × qw words
	n     int
}

func (v *jvec) instIdx(inst query.InstID) int {
	for i, in := range v.insts {
		if in == inst {
			return i
		}
	}
	return -1
}

// jvecPool recycles join-phase vectors and their vID columns within one
// worker. Vectors are acquired per probe/routing selection and released by
// execChildren once their sub-plan completes, so the live set is bounded by
// the plan depth; backing arrays keep their capacity across episodes, which
// makes the steady-state join phase allocation-free.
type jvecPool struct {
	free []*jvec
	cols [][]int32
}

func (p *jvecPool) get() *jvec {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		return v
	}
	return &jvec{}
}

// col returns an empty vID column, reusing a released one when available.
func (p *jvecPool) col() []int32 {
	if n := len(p.cols); n > 0 {
		c := p.cols[n-1]
		p.cols = p.cols[:n-1]
		return c[:0]
	}
	return nil
}

// put returns v and its columns to the pool. The caller must be done with
// every slice view into v.
func (p *jvecPool) put(v *jvec) {
	for i := range v.vids {
		if v.vids[i] != nil {
			p.cols = append(p.cols, v.vids[i])
		}
		v.vids[i] = nil
	}
	v.insts = v.insts[:0]
	v.vids = v.vids[:0]
	v.qsets = v.qsets[:0]
	v.n = 0
	p.free = append(p.free, v)
}

// Worker executes episodes against a shared Context. Each worker owns its
// scratch buffers; workers synchronize only through STeMs, sources, the
// policy, and the stats counters.
type Worker struct {
	C   *Context
	Pol policy.Policy

	qw  int
	log []policy.LogEntry

	// Stats arena: every counter accumulates in these plain fields during an
	// episode and folds into the shared Context.Stats atomics exactly once,
	// at the episode boundary (foldStats). The hot loops therefore never
	// touch a shared cache line, with or without CollectStats.
	collect bool       // Context.Opt.CollectStats
	trace   bool       // Context.Opt.TraceActions
	ep      epCounters // folded and reset by foldStats
	planSig uint64     // FNV-style signature of the episode's chosen ops

	// Per-instance STeM traffic (collect only), parallel to C.InstStats.
	instIns, instProbes, instMatches []int64

	// Action-trace buffers (trace only), reused across episodes; an
	// EpisodeReport's action slices alias them until the next episode.
	selActs, joinActs []int32

	// Episode arena: worker-owned buffers reset (not reallocated) per
	// episode. Workers never share scratch, so reuse needs no new
	// synchronization; everything handed to shared structures (STeM
	// entries, source rows) is copied by the receiver before the arena is
	// reused. DESIGN.md "Performance" documents the ownership rules.
	selVids   []int32    // ingested vID buffer (selection phase input)
	selQsets  []uint64   // ingested query-set slab, n × qw words
	root      jvec       // join-phase root vector (wraps selVids/selQsets)
	pool      jvecPool   // intermediate join vectors
	mask      []uint64   // the current operator's query mask padded to qw words
	semiAcc   []uint64   // prune: SemiJoinVec's per-key scratch, qw words
	fullMask  bitset.Set // all-queries mask (template for notMask)
	notMask   bitset.Set // prune: bits outside the eligible set
	copyIdx   []int      // probe/routeSel: input column positions to copy
	residuals []appliedResidual

	// Router arena (route), indexed by query ID over the qw*64 IDs a query
	// set can name. routeSeen marks the queries the current vector touched;
	// only their routeCnt/routeRows entries are non-zero, and route resets
	// exactly those before returning. routeCols holds each touched query's
	// source column positions in the current vector (empty for sources that
	// only count).
	routeSeen []uint64
	routeCnt  []int32
	routeCols [][]int
	routeRows [][]int32
	flat      []int32 // naive router: one row

	// Vector-kernel arena (see internal/stem/vec.go). probeKeys doubles as
	// the prune phase's key batch — the selection and join phases of one
	// episode never overlap on a worker, and probe() finishes with these
	// buffers before execChildren recurses into a child probe.
	insKeys    [][]int64          // STeM-insert key columns, built from vIDs
	insScratch stem.InsertScratch // InsertVec bucket pre-linking scratch
	probeKeys  []int64            // kernel input keys (probe + prune)
	probeIn    []int32            // kernel input position -> tuple index
	probeTqs   []uint64           // masked tuple query sets, stride qw
	hits       []stem.VecHit      // ProbeVec hits (sets land in the output vector)

	// cv is the context view this episode runs against: loaded once per
	// episode (one atomic pointer load), so the hot loops below read an
	// immutable snapshot while the engine admits and retires queries
	// concurrently. clk is the worker's private publication-timestamp block
	// allocator (stem.Clock), eliminating the shared version-clock CAS from
	// the per-episode publish path.
	cv  *view
	clk stem.Clock
}

// NewWorker creates a worker bound to ctx using pol for planning. Buffers
// are sized to the batch's query-ID capacity, so they never resize while a
// streaming batch admits queries (qw == 1 for the default 64-query
// capacity, keeping the single-word fast paths).
func NewWorker(ctx *Context, pol policy.Policy) *Worker {
	qcap := ctx.B.QCap()
	qw := bitset.WordsFor(qcap)
	w := &Worker{
		C: ctx, Pol: pol, qw: qw,
		collect:   ctx.Opt.CollectStats,
		trace:     ctx.Opt.TraceActions,
		mask:      make([]uint64, qw),
		semiAcc:   make([]uint64, qw),
		fullMask:  bitset.NewFull(qcap),
		notMask:   bitset.New(qcap),
		routeSeen: make([]uint64, qw),
		routeCnt:  make([]int32, qw*64),
		routeCols: make([][]int, qw*64),
		routeRows: make([][]int32, qw*64),
	}
	if w.collect {
		w.instIns = make([]int64, len(ctx.B.Insts), query.MaxInstances)
		w.instProbes = make([]int64, len(ctx.B.Insts), query.MaxInstances)
		w.instMatches = make([]int64, len(ctx.B.Insts), query.MaxInstances)
	}
	return w
}

// epCounters is the per-worker stats arena: plain fields mirroring the
// Stats atomics, zeroed by each fold.
type epCounters struct {
	episodes, selIn, selOut, inserted, joinOut, routed int64
	filterNs, buildNs, probeNs, routeNs                int64
	filterOps, probeOps, routeSelOps, routerOps        int64
	sharedOps, opQueries                               int64
}

// foldStats folds the worker's arena counters into the shared atomics and
// resets the arena. Called exactly once per episode — deferred in
// RunEpisode so faulted (panicking) episodes still publish their partial
// counters, and explicitly at the end of StepBench.Step. It never
// allocates.
func (w *Worker) foldStats() {
	s, e := &w.C.Stats, &w.ep
	if e.episodes != 0 {
		s.Episodes.Add(e.episodes)
	}
	if e.selIn != 0 {
		s.SelIn.Add(e.selIn)
	}
	if e.selOut != 0 {
		s.SelOut.Add(e.selOut)
	}
	if e.inserted != 0 {
		s.Inserted.Add(e.inserted)
	}
	if e.joinOut != 0 {
		s.JoinOut.Add(e.joinOut)
	}
	if e.routed != 0 {
		s.Routed.Add(e.routed)
	}
	if e.filterNs != 0 {
		s.FilterNs.Add(e.filterNs)
	}
	if e.buildNs != 0 {
		s.BuildNs.Add(e.buildNs)
	}
	if e.probeNs != 0 {
		s.ProbeNs.Add(e.probeNs)
	}
	if e.routeNs != 0 {
		s.RouteNs.Add(e.routeNs)
	}
	if w.collect {
		if e.filterOps != 0 {
			s.FilterOps.Add(e.filterOps)
		}
		if e.probeOps != 0 {
			s.ProbeOps.Add(e.probeOps)
		}
		if e.routeSelOps != 0 {
			s.RouteSelOps.Add(e.routeSelOps)
		}
		if e.routerOps != 0 {
			s.RouterOps.Add(e.routerOps)
		}
		if e.sharedOps != 0 {
			s.SharedOps.Add(e.sharedOps)
		}
		if e.opQueries != 0 {
			s.OpQueries.Add(e.opQueries)
		}
		for i := range w.instIns {
			st := &w.C.InstStats[i]
			if w.instIns[i] != 0 {
				st.Inserts.Add(w.instIns[i])
				w.instIns[i] = 0
			}
			if w.instProbes[i] != 0 {
				st.Probes.Add(w.instProbes[i])
				w.instProbes[i] = 0
			}
			if w.instMatches[i] != 0 {
				st.Matches.Add(w.instMatches[i])
				w.instMatches[i] = 0
			}
		}
	}
	*e = epCounters{}
}

// foldSig folds one chosen operator into the episode's plan signature
// (FNV-1a-style over (lineage, phase, op)). Episodes that pick the same
// operator sequence over the same lineage states share a signature, so a
// signature change between consecutive episodes of an instance is a plan
// switch.
func (w *Worker) foldSig(phase uint64, op int, lineage uint64) {
	const prime = 0x100000001b3
	w.planSig = (w.planSig ^ lineage) * prime
	w.planSig = (w.planSig ^ (phase<<32 | uint64(op))) * prime
}

// EpisodeReport summarizes one episode for convergence tracking.
type EpisodeReport struct {
	// MeasuredCost is the episode's cost-model total over the execution log.
	MeasuredCost float64
	// MeasuredJoinCost restricts the total to the join phase — the series
	// the Fig. 16 learning curves plot against the policy's join-phase
	// estimate.
	MeasuredJoinCost float64
	// JoinInput is the number of tuples entering the join phase.
	JoinInput int

	// PlanSig identifies the episode's chosen operator sequence; see
	// Worker.foldSig. Always computed (two multiplies per operator) so the
	// flight recorder can stamp episode events with it even when stats
	// collection is off.
	PlanSig uint64
	// ViewGen is the generation of the immutable context view the episode
	// executed against — which batch extension the worker observed.
	ViewGen uint64
	// SelActions and JoinActions are the chosen selection-op IDs and probed
	// edge IDs in execution order (TraceActions only). They alias worker
	// buffers valid until the worker's next episode; consumers copy.
	SelActions  []int32
	JoinActions []int32
}

// ingestVector copies the episode's vIDs into the worker arena and stamps
// every tuple with the active query set (padded to qw words once).
func (w *Worker) ingestVector(in EpisodeInput) ([]int32, []uint64) {
	w.selVids = append(w.selVids[:0], in.VIDs...)
	qw := w.qw
	w.selQsets = growWords(w.selQsets, len(in.VIDs)*qw)
	qsets := w.selQsets
	act := padMask(w.mask, in.Active)
	for b := 0; b < len(qsets); b += qw {
		copy(qsets[b:b+qw:b+qw], act)
	}
	return w.selVids, qsets
}

// runSelSteps applies a planned selection-phase operator chain to the
// ingested vector, compacting after every step and logging each decision.
func (w *Worker) runSelSteps(in EpisodeInput, steps []plan.SelStep, vids []int32, qsets []uint64) ([]int32, []uint64) {
	c := w.C
	cv := w.cv
	for si := range steps {
		st := &steps[si]
		nIn := len(vids)
		if nIn == 0 {
			break
		}
		if ref := cv.selOps[st.Op.ID]; !ref.prune {
			cv.filters[ref.idx].Apply(c.Opt.GroupedFilters, vids, qsets, w.qw)
		} else {
			w.applyPrune(&cv.pruneOps[ref.idx], st.Op.Queries, vids, qsets)
		}
		vids, qsets = compact(vids, qsets, w.qw)
		w.foldSig(0, st.Op.ID, st.Applied)
		if w.collect {
			w.ep.filterOps++
			served := andCount(st.Op.Queries, in.Active)
			w.ep.opQueries += int64(served)
			if served > 1 {
				w.ep.sharedOps++
			}
		}
		if w.trace {
			w.selActs = append(w.selActs, int32(st.Op.ID))
		}
		w.log = append(w.log, policy.LogEntry{
			Phase: policy.SelPhase, Inst: in.Inst,
			Lineage: st.Applied, Q: in.Active, Op: st.Op.ID,
			NIn: nIn, NOut: len(vids), NDiv: -1,
			MainLineage: st.NextApplied, QMain: in.Active, MainCands: st.NextCands,
		})
	}
	return vids, qsets
}

// rootVec wraps the surviving selection-phase vector as the join-phase root
// without copying; it aliases the worker's ingest buffers.
func (w *Worker) rootVec(inst query.InstID, vids []int32, qsets []uint64, n int) *jvec {
	v := &w.root
	v.insts = append(v.insts[:0], inst)
	v.vids = append(v.vids[:0], vids)
	v.qsets = qsets
	v.n = n
	return v
}

// RunEpisode processes one episode: selection phase, STeM insert, join
// phase, routing, and the policy update from the episode's execution log.
// A non-nil error means the episode was aborted before completing its STeM
// insertion (injected or real insertion failure); the episode's version
// slot is published regardless so concurrent probes never spin on it.
func (w *Worker) RunEpisode(in EpisodeInput) (EpisodeReport, error) {
	c := w.C
	w.cv = c.loadView()
	if h := c.Opt.Hooks.EpisodeStart; h != nil {
		h(in.Inst, in.Slot)
	}
	w.log = w.log[:0]
	w.planSig = 0
	if w.collect && len(w.instIns) < len(w.cv.g.Insts) {
		// A live-admitted query added instances since this worker was built;
		// extend the per-instance arenas (capacity reserved at creation, so
		// steady state never reallocates).
		n := len(w.cv.g.Insts)
		w.instIns = w.instIns[:n]
		w.instProbes = w.instProbes[:n]
		w.instMatches = w.instMatches[:n]
	}
	if w.trace {
		w.selActs = w.selActs[:0]
		w.joinActs = w.joinActs[:0]
	}
	defer w.foldStats() // runs during panic unwind too: faulted episodes fold
	w.ep.episodes++

	// ---- Selection phase -------------------------------------------------
	t0 := time.Now()
	vids, qsets := w.ingestVector(in)
	w.ep.selIn += int64(len(vids))
	steps := plan.BuildSel(w.Pol, in.Inst, in.Active, in.SelOps)
	vids, qsets = w.runSelSteps(in, steps, vids, qsets)
	w.ep.filterNs += time.Since(t0).Nanoseconds()
	w.ep.selOut += int64(len(vids))

	// ---- STeM insert (make the join symmetric) ---------------------------
	if h := c.Opt.Hooks.StemInsert; h != nil {
		if err := h(in.Inst, in.Slot); err != nil {
			c.Versions.Publish(in.Slot)
			return EpisodeReport{}, err
		}
	}
	t0 = time.Now()
	nk := len(w.cv.stemKeyCols[in.Inst])
	for len(w.insKeys) < nk {
		w.insKeys = append(w.insKeys, nil)
	}
	ik := w.insKeys[:nk]
	for k, colData := range w.cv.stemKeySlices[in.Inst] {
		col := ik[k][:0]
		for _, vid := range vids {
			col = append(col, colData[vid])
		}
		ik[k] = col
	}
	w.cv.stems[in.Inst].InsertVec(vids, ik, qsets, w.qw, in.Slot, &w.insScratch)
	// PublishClocked reads the watermark before drawing the publish
	// timestamp from the worker's block clock: every slot under wm then has
	// a timestamp strictly older than ts, letting the probe kernels skip
	// per-entry version lookups (stem.ProbeVec).
	wm, ts := c.Versions.PublishClocked(in.Slot, &w.clk)
	w.ep.buildNs += time.Since(t0).Nanoseconds()
	w.ep.inserted += int64(len(vids))
	if w.collect {
		w.instIns[in.Inst] += int64(len(vids))
	}

	joinInput := len(vids)
	if joinInput > 0 {
		// ---- Join phase ---------------------------------------------------
		root := plan.BuildJoin(&w.cv.g, w.Pol, in.Inst, in.Active, c.ReqInsts)
		w.execChildren(root, w.rootVec(in.Inst, vids, qsets, joinInput), ts, wm)
	}

	rep := EpisodeReport{JoinInput: joinInput, PlanSig: w.planSig, ViewGen: w.cv.gen}
	rep.MeasuredCost, rep.MeasuredJoinCost = w.measuredCost()
	if w.trace {
		rep.SelActions, rep.JoinActions = w.selActs, w.joinActs
	}
	w.Pol.Observe(w.log)
	return rep, nil
}

// measuredCost totals the episode's log through the cost model: join-phase
// probes (plus routing selections on divergence) and selection operators.
// It returns the full total and the join-phase-only total.
func (w *Worker) measuredCost() (total, join float64) {
	m := w.C.Model
	for i := range w.log {
		e := &w.log[i]
		switch e.Phase {
		case policy.JoinPhase:
			c := m.Cost(cost.Join, float64(e.NIn), float64(e.NOut))
			if e.NDiv >= 0 {
				c += m.Cost(cost.RoutingSelection, float64(e.NIn), float64(e.NDiv))
			}
			total += c
			join += c
		case policy.SelPhase:
			total += m.Cost(cost.Selection, float64(e.NIn), float64(e.NOut))
		}
	}
	return total, join
}

// applyPrune intersects each tuple's query set with the union of matching
// query sets in the opposite STeM, restricted to the eligible queries
// (symmetric join pruning, §5.2). The whole vector goes through one
// SemiJoinVec kernel call, which prunes the query sets in place: keys are
// gathered into the worker's key batch, and the bits outside the eligible
// set are passed as the kept mask.
func (w *Worker) applyPrune(p *PruneOp, elig bitset.Set, vids []int32, qsets []uint64) {
	other := w.cv.stems[p.Other]
	local := w.cv.tables[p.Inst].Col(p.LocalCol)
	w.notMask = w.fullMask.CopyInto(w.notMask)
	notMask := w.notMask
	notMask.AndNotWith(elig)

	pk := w.probeKeys[:0]
	for _, vid := range vids {
		pk = append(pk, local[vid])
	}
	w.probeKeys = pk
	// notMask spans the batch's full query capacity, so it is already qw
	// words: no padding needed.
	other.SemiJoinVec(qsets, w.qw, notMask, w.semiAcc, p.OtherCol, pk)
}

// andCount returns the popcount of a ∧ b without materializing it.
func andCount(a, b bitset.Set) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

// compact drops tuples with empty query sets, in place.
func compact(vids []int32, qsets []uint64, qw int) ([]int32, []uint64) {
	out := 0
	if qw == 1 {
		for i := range vids {
			if qsets[i] != 0 {
				vids[out] = vids[i]
				qsets[out] = qsets[i]
				out++
			}
		}
		return vids[:out], qsets[:out]
	}
	for i := range vids {
		base := i * qw
		if anyWords(qsets[base : base+qw : base+qw]) {
			if out != i {
				vids[out] = vids[i]
				copy(qsets[out*qw:out*qw+qw], qsets[base:base+qw])
			}
			out++
		}
	}
	return vids[:out], qsets[:out*qw]
}

// execChildren runs node's children over its output vector v: probe
// sub-plans before divergence sub-plans, bounding pending vectors (§3).
// Intermediate vectors return to the worker pool as soon as their sub-plan
// completes.
func (w *Worker) execChildren(n *plan.Node, v *jvec, ts int64, wm stem.Slot) {
	for _, ch := range n.Children {
		switch ch.Kind {
		case plan.Router:
			w.route(ch, v)
		case plan.RouteSel:
			// Executed through the sibling probe's Div pointer.
		case plan.Probe:
			out, logIdx := w.probe(ch, v, ts, wm)
			w.execChildren(ch, out, ts, wm)
			w.pool.put(out)
			if ch.Div != nil {
				divOut := w.routeSel(ch.Div, v)
				w.log[logIdx].NDiv = divOut.n
				w.execChildren(ch.Div, divOut, ts, wm)
				w.pool.put(divOut)
			}
		}
	}
}

// appliedResidual is a cycle-closing residual predicate completed by the
// current probe: it clears its query's bit from output tuples whose
// endpoint values differ.
type appliedResidual struct {
	qid        int
	otherIdx   int
	otherData  []int64
	targetData []int64
}

// emitTuple appends tuple i's kept vID columns (plus, for probes, the
// matched vID) to out. Kept free of closure state so the probe and routing-
// selection hot loops stay allocation-free.
func emitTuple(out *jvec, copyIdx []int, v *jvec, i, targetPos int, vid int32) {
	for oi, vi := range copyIdx {
		out.vids[oi] = append(out.vids[oi], v.vids[vi][i])
	}
	if targetPos >= 0 {
		out.vids[targetPos] = append(out.vids[targetPos], vid)
	}
	out.n++
}

// probe executes one STeM probe node, producing the expanded vector and the
// index of its log entry (whose NDiv the caller may patch). The output
// vector comes from the worker pool; the caller releases it.
func (w *Worker) probe(nd *plan.Node, v *jvec, ts int64, wm stem.Slot) (*jvec, int) {
	c := w.C
	cv := w.cv
	t0 := time.Now()
	e := &cv.g.Edges[nd.EdgeID]
	var src query.InstID
	var srcData []int64
	var targetCol string
	if nd.Target == e.A {
		src, srcData, targetCol = e.B, cv.edgeBCol[e.ID], e.ACol
	} else {
		src, srcData, targetCol = e.A, cv.edgeACol[e.ID], e.BCol
	}
	srcIdx := v.instIdx(src)

	// Residual predicates completed by this probe: cycle-closing joins whose
	// second endpoint is the probed instance.
	residuals := w.residuals[:0]
	for ri := range cv.g.Residuals {
		r := &cv.g.Residuals[ri]
		var other query.InstID
		var otherData, targetData []int64
		switch {
		case r.A == nd.Target && nd.Lineage&(1<<r.B) != 0:
			other, otherData, targetData = r.B, cv.resBCol[ri], cv.resACol[ri]
		case r.B == nd.Target && nd.Lineage&(1<<r.A) != 0:
			other, otherData, targetData = r.A, cv.resACol[ri], cv.resBCol[ri]
		default:
			continue
		}
		if !nd.Q.Contains(r.QID) {
			continue
		}
		if oi := v.instIdx(other); oi >= 0 {
			residuals = append(residuals, appliedResidual{r.QID, oi, otherData, targetData})
		}
	}
	w.residuals = residuals

	// Output columns: what the children need (adaptive projections), or the
	// full lineage when the optimization is off.
	var outKeep uint64
	if c.Opt.AdaptiveProjections {
		for _, ch := range nd.Children {
			outKeep |= ch.Keep
		}
	} else {
		outKeep = nd.MainLineage
	}
	out := w.pool.get()
	copyIdx := w.copyIdx[:0]
	for i, inst := range v.insts {
		if outKeep&(1<<inst) != 0 {
			out.insts = append(out.insts, inst)
			out.vids = append(out.vids, w.pool.col())
			copyIdx = append(copyIdx, i)
		}
	}
	w.copyIdx = copyIdx
	targetPos := -1
	if outKeep&(1<<nd.Target) != 0 {
		targetPos = len(out.insts)
		out.insts = append(out.insts, nd.Target)
		out.vids = append(out.vids, w.pool.col())
	}

	// Gather phase: eligible tuples' join keys and masked query sets move
	// into the worker's kernel batch, then one ProbeVec call replaces the
	// per-tuple STeM probes (stem/vec.go) and writes each match's
	// intersected query set straight into the output vector. Hits come back
	// in input order, so output tuples append in the same order as a
	// per-tuple probe loop would produce.
	qw := w.qw
	mk := padMask(w.mask, nd.Q)
	stemT := cv.stems[nd.Target]
	pk := w.probeKeys[:0]
	pin := w.probeIn[:0]
	srcVids := v.vids[srcIdx]
	ptq := growWords(w.probeTqs, v.n*qw)
	j := 0 // gathered tuples; tuple j's masked set is ptq[j*qw:][:qw]
	for i := 0; i < v.n; i++ {
		b, o := i*qw, j*qw
		if !andWords(ptq[o:o+qw:o+qw], v.qsets[b:b+qw:b+qw], mk) {
			continue
		}
		pk = append(pk, srcData[srcVids[i]])
		pin = append(pin, int32(i))
		j++
	}
	ptq = ptq[:j*qw]
	w.probeKeys, w.probeIn, w.probeTqs = pk, pin, ptq
	w.hits, out.qsets = stemT.ProbeVec(w.hits[:0], out.qsets[:0], targetCol, pk, ptq, qw, ts, wm)
	// Residual checks run on the written sets; tuples they empty are
	// dropped, and later survivors are copied down over them.
	oqs := out.qsets
	o := 0
	for h, m := range w.hits {
		i := int(pin[m.In])
		oq := oqs[h*qw : h*qw+qw : h*qw+qw]
		if len(residuals) > 0 {
			for _, rr := range residuals {
				wd, bit := rr.qid/64, uint64(1)<<(rr.qid%64)
				if oq[wd]&bit != 0 {
					// NULL endpoints (value.NullCode) never satisfy the
					// equality — the ov == NullCode check also rejects the
					// NULL = NULL case, which != alone would let through.
					ov := rr.otherData[v.vids[rr.otherIdx][i]]
					if ov != rr.targetData[m.VID] || ov == value.NullCode {
						oq[wd] &^= bit
					}
				}
			}
			if !anyWords(oq) {
				continue
			}
			if o != h*qw {
				copy(oqs[o:o+qw], oq)
			}
		}
		o += qw
		emitTuple(out, copyIdx, v, i, targetPos, m.VID)
	}
	out.qsets = oqs[:o]
	lookups := int64(len(pk)) // STeM probe keys; folded per instance when collecting
	w.ep.joinOut += int64(out.n)
	w.ep.probeNs += time.Since(t0).Nanoseconds()
	w.foldSig(1, nd.EdgeID, nd.Lineage)
	if w.collect {
		w.ep.probeOps++
		served := nd.Q.Count()
		w.ep.opQueries += int64(served)
		if served > 1 {
			w.ep.sharedOps++
		}
		w.instProbes[nd.Target] += lookups
		w.instMatches[nd.Target] += int64(out.n)
	}
	if w.trace {
		w.joinActs = append(w.joinActs, int32(nd.EdgeID))
	}

	var divQ bitset.Set
	if nd.Div != nil {
		divQ = nd.Div.Q
	}
	w.log = append(w.log, policy.LogEntry{
		Phase:   policy.JoinPhase,
		Lineage: nd.Lineage, Q: nd.StateQ, Op: nd.EdgeID,
		NIn: v.n, NOut: out.n, NDiv: -1,
		MainLineage: nd.MainLineage, QMain: nd.Q, MainCands: nd.MainCands,
		DivQ: divQ, DivCands: nd.DivCands,
	})
	return out, len(w.log) - 1
}

// routeSel executes a routing selection: tuples keep only nd.Q's bits and
// empty tuples are dropped; vID columns are projected to nd.Keep. The
// output vector comes from the worker pool; the caller releases it.
func (w *Worker) routeSel(nd *plan.Node, v *jvec) *jvec {
	t0 := time.Now()
	keep := nd.Keep
	if !w.C.Opt.AdaptiveProjections {
		keep = nd.Lineage
	}
	out := w.pool.get()
	copyIdx := w.copyIdx[:0]
	for i, inst := range v.insts {
		if keep&(1<<inst) != 0 {
			out.insts = append(out.insts, inst)
			out.vids = append(out.vids, w.pool.col())
			copyIdx = append(copyIdx, i)
		}
	}
	w.copyIdx = copyIdx
	qmask := nd.Q
	if w.qw == 1 {
		var mask uint64
		if len(qmask) > 0 {
			mask = qmask[0]
		}
		for i := 0; i < v.n; i++ {
			qw := v.qsets[i] & mask
			if qw == 0 {
				continue
			}
			out.qsets = append(out.qsets, qw)
			emitTuple(out, copyIdx, v, i, -1, 0)
		}
	} else {
		qw := w.qw
		mk := padMask(w.mask, qmask)
		oqs := growWords(out.qsets, v.n*qw)
		o := 0
		for i := 0; i < v.n; i++ {
			b := i * qw
			if !andWords(oqs[o:o+qw:o+qw], v.qsets[b:b+qw:b+qw], mk) {
				continue
			}
			o += qw
			emitTuple(out, copyIdx, v, i, -1, 0)
		}
		out.qsets = oqs[:o]
	}
	// Routing-selection time lands in the probe bucket, matching the cost
	// model (§6.3 charges routing selections to the join phase).
	w.ep.probeNs += time.Since(t0).Nanoseconds()
	if w.collect {
		w.ep.routeSelOps++
		served := nd.Q.Count()
		w.ep.opQueries += int64(served)
		if served > 1 {
			w.ep.sharedOps++
		}
	}
	return out
}

// route multicasts v's tuples to the RouLette sources of the queries in
// nd.Q. It makes one transposed pass over the tuples: each tuple's bits in
// qset ∧ nd.Q are iterated with TrailingZeros64, so the work is
// proportional to the routed (tuple, query) pairs, not |nd.Q| × tuples.
// The locality-conscious router (§5.1) counts each query's rows — and, for
// sources that collect rows, appends them to a worker-local per-query
// buffer in tuple order, so every query sees its rows in the same order as
// a per-query scan would produce — then makes one Append per touched query,
// in query-ID order. The naive router locks the source for every row.
func (w *Worker) route(nd *plan.Node, v *jvec) {
	c := w.C
	t0 := time.Now()
	qw := w.qw
	mk := padMask(w.mask, nd.Q)[:qw:qw]
	seen, cnt := w.routeSeen[:qw:qw], w.routeCnt
	collect := c.Opt.CollectRows
	naive := !c.Opt.LocalityRouter
	for i := 0; i < v.n; i++ {
		b := i * qw
		q := v.qsets[b : b+qw : b+qw]
		for wd := range q {
			x := q[wd] & mk[wd]
			seen[wd] |= x
			for x != 0 {
				qid := wd<<6 | bits.TrailingZeros64(x)
				x &= x - 1
				n := cnt[qid]
				cnt[qid] = n + 1
				if !collect && !naive {
					continue // count only: no row leaves the worker
				}
				if n == 0 {
					w.routeCols[qid] = w.sourceCols(c.Sources[qid], v, w.routeCols[qid])
				}
				if naive {
					row := w.flat[:0]
					for _, ci := range w.routeCols[qid] {
						row = append(row, v.vids[ci][i])
					}
					w.flat = row
					c.Sources[qid].Append(row, 1)
					w.ep.routed++
					continue
				}
				rows := w.routeRows[qid]
				for _, ci := range w.routeCols[qid] {
					rows = append(rows, v.vids[ci][i])
				}
				w.routeRows[qid] = rows
			}
		}
	}
	nq := 0
	for wd, x := range seen {
		seen[wd] = 0
		for x != 0 {
			qid := wd<<6 | bits.TrailingZeros64(x)
			x &= x - 1
			nq++
			if !naive {
				c.Sources[qid].Append(w.routeRows[qid], int(cnt[qid]))
				w.ep.routed += int64(cnt[qid])
				w.routeRows[qid] = w.routeRows[qid][:0]
			}
			cnt[qid] = 0
		}
	}
	w.ep.routeNs += time.Since(t0).Nanoseconds()
	// A vector with no tuples for nd.Q's queries routes nothing; don't count
	// a zero-query invocation (it would drag FanOut below 1).
	if w.collect && nq > 0 {
		w.ep.routerOps++
		w.ep.opQueries += int64(nq)
		if nq > 1 {
			w.ep.sharedOps++
		}
	}
}

// sourceCols maps the vID columns src's rows carry to v's column indices,
// reusing idx. Sources that only count need no columns.
func (w *Worker) sourceCols(src *Source, v *jvec, idx []int) []int {
	idx = idx[:0]
	if !src.collect {
		return idx
	}
	for _, inst := range src.Insts {
		idx = append(idx, v.instIdx(inst))
	}
	return idx
}
