package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"oblivjoin"
	"oblivjoin/internal/bitonic"
	"oblivjoin/internal/core"
	"oblivjoin/internal/crypto"
	"oblivjoin/internal/memory"
	"oblivjoin/internal/query"
	"oblivjoin/internal/service"
	"oblivjoin/internal/table"
	"oblivjoin/internal/trace"
)

// This file is the traced pass: the span-derived numbers of each
// workload and the probes that time each layer's public calls from
// outside. Probes run single-threaded after the loops.

// sink keeps probe results alive so the compiler cannot drop the loops.
var sink uint64

// reps scales a probe's iteration count down under -smoke.
func reps(n int, smoke bool) int {
	if smoke {
		return max(1, n/64)
	}
	return n
}

// medianDur runs fn k times and returns the median duration.
func medianDur(k int, fn func()) time.Duration {
	xs := make([]float64, k)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(xs))
}

func randomEntries(n int) []table.Entry {
	rng := rand.New(rand.NewSource(int64(n)))
	es := make([]table.Entry, n)
	for i := range es {
		es[i] = table.Entry{J: rng.Uint64() >> 40, TID: uint64(1 + i&1), D: data36(rng, 'p', 6)}
	}
	return es
}

// probeObliv times the two primitives every comparator executes.
func probeObliv(rep *report, smoke bool) {
	const n = 1024
	es := randomEntries(n)
	iters := reps(1<<21, smoke)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		table.CondSwapEntry(uint64(i)&1, &es[i&(n-1)], &es[(i*7+1)&(n-1)])
	}
	rep.set("obliv.condswap_entry_ns", float64(time.Since(t0))/float64(iters))
	var acc uint64
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		acc += table.LessJTID(es[i&(n-1)], es[(i+1)&(n-1)])
	}
	rep.set("obliv.less_ns", float64(time.Since(t0))/float64(iters))
	sink += acc
}

// probeCrypto times Cipher.SealRange/OpenRange over blocks of the
// sealed store's default width.
func probeCrypto(rep *report, c *crypto.Cipher, smoke bool) error {
	const entries, blocks = table.DefaultSealedBlock, 64
	pt := entries * table.EncodedSize
	plain := make([]byte, blocks*pt)
	sealed := make([]byte, blocks*crypto.SealedLen(pt))
	iters := reps(128, smoke)
	c.SealRange(sealed, plain, pt) // fill the scratch pool before counting allocations
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		c.SealRange(sealed, plain, pt)
	}
	dSeal := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		if err := c.OpenRange(plain, sealed, pt); err != nil {
			return err
		}
	}
	dOpen := time.Since(t0)
	runtime.ReadMemStats(&m1)
	perEntry := float64(iters * blocks * entries)
	rep.set("crypto.seal_range_ns_per_entry", float64(dSeal)/perEntry)
	rep.set("crypto.open_range_ns_per_entry", float64(dOpen)/perEntry)
	rep.set("crypto.seal_mb_s", float64(iters*blocks*pt)/1e6/dSeal.Seconds())
	rep.set("crypto.overhead_bytes", crypto.Overhead)
	rep.set("crypto.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(2*iters))
	return nil
}

// probeTable times range and point access on a store from the
// workload's allocator.
func probeTable(rep *report, c *crypto.Cipher, smoke bool) {
	const n, blk = 4096, 1024
	sp := memory.NewSpace(nil, nil)
	prefix := "table.plain."
	alloc := table.PlainAlloc(sp)
	if c != nil {
		prefix = "table.block."
		alloc = table.BlockEncryptedAlloc(sp, c, 0)
	}
	st := alloc(n).(table.RangeStore)
	buf := randomEntries(blk)
	iters := reps(64, smoke)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		for lo := 0; lo < n; lo += blk {
			st.SetRange(lo, buf)
		}
	}
	rep.set(prefix+"setrange_ns_per_entry", float64(time.Since(t0))/float64(iters*n))
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		for lo := 0; lo < n; lo += blk {
			st.GetRange(lo, buf)
		}
	}
	rep.set(prefix+"getrange_ns_per_entry", float64(time.Since(t0))/float64(iters*n))
	if c == nil {
		return
	}
	gets := reps(1<<14, smoke)
	t0 = time.Now()
	for i := 0; i < gets; i++ {
		e := st.Get(i * 37 % n)
		sink += e.J
	}
	rep.set("table.block.get_ns", float64(time.Since(t0))/float64(gets))
	rep.set("table.block.bytes_per_entry", float64(table.BlockFootprint(n, 0))/n)
}

// probeBitonic sorts size random entries on a store from alloc with
// each network, and with two workers when the machine has them.
func probeBitonic(rep *report, alloc table.Alloc, size int, smoke bool) error {
	fill := randomEntries(size)
	sortOnce := func(net core.SortNet, workers int) (time.Duration, uint64) {
		st := alloc(size)
		st.(table.RangeStore).SetRange(0, fill)
		cfg := &core.Config{Alloc: alloc, Net: net, Workers: workers}
		var bs bitonic.Stats
		t0 := time.Now()
		cfg.SortStore(st, table.LessJTID, &bs)
		return time.Since(t0), bs.CompareExchanges
	}
	k := 9
	if smoke {
		k = 2
	}
	var cmps uint64
	one := medianDur(k, func() { _, cmps = sortOnce(core.Bitonic, 1) })
	if want := bitonic.Comparators(size); cmps != want {
		return fmt.Errorf("bitonic sort of %d entries ran %d comparators, the closed form says %d", size, cmps, want)
	}
	rep.set("bitonic.sort_ms", ms(one))
	rep.set("bitonic.comparators", float64(cmps))
	rep.set("bitonic.ns_per_cmp", float64(one)/float64(cmps))
	me := medianDur(k, func() { sortOnce(core.MergeExchange, 1) })
	rep.set("bitonic.mergeexchange_ns_per_cmp", float64(me)/float64(bitonic.MergeExchangeComparators(size)))
	if parallelOK(rep, "bitonic.w2_speedup") {
		two := medianDur(k, func() { sortOnce(core.Bitonic, 2) })
		rep.set("bitonic.w2_speedup", float64(one)/float64(two))
	}
	return nil
}

// setCoreUnitCosts derives the per-comparator and per-route-op times
// the time model multiplies counts by, from decomposed-join statistics.
func setCoreUnitCosts(rep *report, stats []core.Stats) {
	var perCmp, perRoute []float64
	for _, st := range stats {
		if st.DistributeSort.CompareExchanges > 0 && st.RouteOps > 0 {
			perCmp = append(perCmp, float64(st.TDistSort)/float64(st.DistributeSort.CompareExchanges))
			perRoute = append(perRoute, float64(st.TDistRoute)/float64(st.RouteOps))
		}
	}
	rep.set("core.ns_per_cmp", median(perCmp))
	rep.set("core.ns_per_route_op", median(perRoute))
}

// residualPct is how far the time model — counts times unit costs —
// lands from an observed wall time.
func residualPct(rep *report, comparators, routeOps uint64, observed time.Duration) float64 {
	modeled := float64(comparators)*rep.values["bitonic.ns_per_cmp"] + float64(routeOps)*rep.values["core.ns_per_route_op"]
	diff := modeled - float64(observed)
	if diff < 0 {
		diff = -diff
	}
	return 100 * diff / float64(observed)
}

// traceOverheadPct compares the traced half of a loop with the untraced
// half: each op class's median latency, summed so every class weighs
// by its cost.
func traceOverheadPct(plain, spanned *loopResult) float64 {
	var sumPlain, sumSpanned float64
	for class, xs := range plain.lat {
		if ys := spanned.lat[class]; len(ys) > 0 {
			sumPlain += median(xs)
			sumSpanned += median(ys)
		}
	}
	return 100 * (sumSpanned - sumPlain) / sumPlain
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// setShares reports each layer's share of the spans' total self time.
func setShares(rep *report, spans []span) {
	byLayer, total := layerSelf(spans)
	if total == 0 {
		return
	}
	for _, layer := range []string{"harness", "http", "service", "exec", "core", "table"} {
		if v, ok := byLayer[layer]; ok {
			rep.set("share."+layer+"_pct", 100*float64(v)/float64(total))
		}
	}
}

// layers is the traced pass of a join workload.
func (w *joinWorkload) layers(d time.Duration, minOps int, tr *tracer, rep *report) (loopResult, error) {
	before := readProc()
	plain, spanned, stats := w.traced(d/2, minOps, tr)
	after := readProc()
	setProc(rep, before, after, plain.attempted+spanned.attempted, plain.wall)
	var all loopResult
	all.merge(&plain)
	all.merge(&spanned)
	if all.failed > 0 {
		return all, nil
	}
	p50Plain, p50Spanned := median(plain.lat["join"]), median(spanned.lat["join"])
	rep.set("harness.trace_overhead_pct", traceOverheadPct(&plain, &spanned))

	// Phase durations from the spans, and how much of the whole they
	// cover.
	phases := map[string][]float64{}
	roots := map[int]span{}
	sums := map[int]int64{}
	for _, s := range tr.spans {
		switch {
		case s.Parent == 0:
			roots[s.Op] = s
		case s.Layer == "core":
			phases[s.Name] = append(phases[s.Name], float64(s.End-s.Start)/1e6)
			sums[s.Op] += s.End - s.Start
		}
	}
	for _, name := range []string{"augment", "expand1", "expand2", "align", "zip"} {
		rep.set("core."+name+"_ms", median(phases[name]))
	}
	var closure []float64
	for op, root := range roots {
		closure = append(closure, float64(sums[op])/float64(root.End-root.Start))
	}
	rep.set("core.phase_sum_over_whole", median(closure))
	pick := func(f func(core.Stats) float64) float64 {
		xs := make([]float64, len(stats))
		for i, st := range stats {
			xs[i] = f(st)
		}
		return median(xs)
	}
	rep.set("core.dist_sort_ms", pick(func(s core.Stats) float64 { return ms(s.TDistSort) }))
	rep.set("core.dist_route_ms", pick(func(s core.Stats) float64 { return ms(s.TDistRoute) }))
	rep.set("core.expand_scan_ms", pick(func(s core.Stats) float64 { return ms(s.TExpandScan) }))
	rep.set("core.comparators", float64(stats[0].Comparators()))
	rep.set("core.route_ops", float64(stats[0].RouteOps))
	for _, st := range stats[1:] {
		if st.Comparators() != stats[0].Comparators() || st.RouteOps != stats[0].RouteOps {
			return all, fmt.Errorf("comparator or route-op counts differ between input shapes: the schedule is not a function of the public sizes")
		}
	}
	setCoreUnitCosts(rep, stats)
	setShares(rep, tr.spans)

	probeObliv(rep, w.smoke)
	probeTable(rep, w.cipher, w.smoke)
	if w.sealed {
		if err := probeCrypto(rep, w.cipher, w.smoke); err != nil {
			return all, err
		}
		// What the sealed store costs over the plain one: the same
		// decomposed join on a plain store, against the sealed median.
		plainTwin := &joinWorkload{n: w.n}
		onPlain := medianDur(3, func() { plainTwin.decomposed(nil, 0, w.inputs[0], nil, nil) })
		rep.set("share.sealed_store_pct", 100*(1-ms(onPlain)/p50Spanned))
	}
	if err := probeBitonic(rep, w.alloc(nil, nil), 2*w.n, w.smoke); err != nil {
		return all, err
	}

	// trace: the hasher alone, the exact event count of one join, and
	// what hashing adds to a join.
	h := trace.NewHasher()
	events := reps(1<<20, w.smoke)
	t0 := time.Now()
	for i := 0; i < events; i++ {
		h.Record(trace.Event{Op: trace.Op(i & 1), Array: 3, Index: uint64(i)})
	}
	rep.set("trace.hasher_ns_per_event", float64(time.Since(t0))/float64(events))
	sink += h.Count()
	var counter trace.Counter
	w.decomposed(nil, 0, w.inputs[0], nil, &counter)
	rep.set("trace.events_per_op", float64(counter.Total()))
	hashOpts := *w.opts
	hashOpts.TraceHash = true
	t0 = time.Now()
	if _, err := oblivjoin.Join(w.tables[0][0], w.tables[0][1], &hashOpts); err != nil {
		return all, err
	}
	hashed := ms(time.Since(t0))
	rep.set("trace.hash_share_pct", 100*(hashed-p50Plain)/hashed)

	// query and shard: the same join through the SQL engine — modeled
	// against observed counts, the time model's residual, and the
	// two-shard run against the unsharded one.
	const sql = "SELECT key, left.data, right.data FROM lt JOIN rt USING (key)"
	engine := func(o query.Options) (*query.Engine, error) {
		o.Encrypted = w.sealed
		e := query.NewEngineWith(o)
		if err := e.Register("lt", w.inputs[0].left); err != nil {
			return nil, err
		}
		return e, e.Register("rt", w.inputs[0].right)
	}
	e1, err := engine(query.Options{Workers: 1, CollectStats: true})
	if err != nil {
		return all, err
	}
	var qerr error
	runSQL := func(e *query.Engine) func() {
		return func() {
			res, err := e.Query(sql)
			if err == nil && len(res.Rows) != w.n {
				err = fmt.Errorf("SQL join returned %d rows, want %d", len(res.Rows), w.n)
			}
			if err != nil {
				qerr = err
			}
		}
	}
	unsharded := medianDur(3, runSQL(e1))
	if qerr != nil {
		return all, qerr
	}
	ps := e1.LastStats()
	model, err := e1.PlanCost(sql)
	if err != nil {
		return all, err
	}
	rep.set("query.modeled_comparators", float64(model.Comparators))
	rep.set("query.observed_comparators", float64(ps.Comparators))
	exact := model.Comparators == ps.Comparators && model.RouteOps == ps.RouteOps
	rep.set("query.model_exact", b2f(exact))
	rep.set("query.time_model_residual_pct", residualPct(rep, model.Comparators, model.RouteOps, ps.Total))
	if parallelOK(rep, "shard.s2_over_s1") {
		e2, err := engine(query.Options{Workers: 2, Shards: 2})
		if err != nil {
			return all, err
		}
		sharded := medianDur(3, runSQL(e2))
		if qerr != nil {
			return all, qerr
		}
		rep.set("shard.s2_over_s1", float64(sharded)/float64(unsharded))
	}
	return all, nil
}

// opClass maps an operator label of PlanStats to its class: the label
// up to the first '(' or '['.
func opClass(label string) string {
	if strings.HasPrefix(label, "join-group-") {
		return "join-aggregate" // the §7 fast path, with or without sums
	}
	if i := strings.IndexAny(label, "(["); i >= 0 {
		return strings.TrimSpace(label[:i])
	}
	return label
}

// layers is the traced pass of a SQL workload.
func (w *sqlWorkload) layers(d time.Duration, minOps int, tr *tracer, rep *report) (loopResult, error) {
	cache0 := w.svc.CacheStats()
	before := readProc()
	plain, spanned, stats := w.loop(d/2, minOps, tr)
	after := readProc()
	cache1 := w.svc.CacheStats()
	setProc(rep, before, after, plain.attempted+spanned.attempted, plain.wall)
	var all loopResult
	all.merge(&plain)
	all.merge(&spanned)
	if all.failed > 0 {
		return all, nil
	}

	rep.set("harness.trace_overhead_pct", traceOverheadPct(&plain, &spanned))
	reads := plain.samples("write")
	rep.set("http.p99_ms", percentile(reads, 0.99))
	rep.set("http.response_bytes_per_op", float64(plain.bytes)/float64(plain.completed()))
	for _, shape := range sqlShapes {
		if xs := plain.lat[shape]; len(xs) > 0 {
			rep.set("http."+shape+"_p50_ms", median(xs))
		}
	}
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	rep.set("service.plan_cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	rep.set("service.rejected", float64(w.svc.Stats().Rejected))

	// Derived spans: the execution and its operators, laid out from the
	// durations PlanStats reports, inside the handler span of their op.
	handlers, rootOf := map[int]span{}, map[int]span{}
	for _, s := range tr.spans {
		switch {
		case s.Parent == 0:
			rootOf[s.Op] = s
		case s.Layer == "service":
			handlers[s.Op] = s
		}
	}
	opWall := map[string][]float64{}
	var rowsOut []float64
	serving := map[string][]float64{}
	for _, st := range stats {
		h, ok := handlers[st.op]
		if !ok {
			return all, fmt.Errorf("op %d has stats but no handler span", st.op)
		}
		total := min(st.stats.TotalNS, h.End-h.Start)
		run := tr.add(span{Parent: h.ID, Op: st.op, Layer: "exec", Name: "run", Start: h.End - total, End: h.End, Derived: true})
		at := h.End - total
		for _, o := range st.stats.Operators {
			class := opClass(o.Op)
			opWall[class] = append(opWall[class], float64(o.WallNS)/1e6)
			end := min(at+o.WallNS, h.End)
			tr.add(span{Parent: run, Op: st.op, Layer: "exec", Name: class, Start: at, End: end, Derived: true})
			at = end
		}
		if n := len(st.stats.Operators); n > 0 {
			rowsOut = append(rowsOut, float64(st.stats.Operators[n-1].Rows))
		}
		root := rootOf[st.op]
		serving[st.shape] = append(serving[st.shape], 100*(1-float64(total)/float64(root.End-root.Start)))
	}
	for _, class := range execOps {
		if xs := opWall[class]; len(xs) > 0 {
			rep.set("exec."+class+"_ms", median(xs))
		}
	}
	rep.set("exec.rows_out_per_op", mean(rowsOut))
	setShares(rep, tr.spans)
	if !w.durable {
		rep.set("share.serving_of_point_pct", median(serving["point"]))
		rep.set("share.serving_of_chain3_pct", median(serving["chain3"]))
	}

	// In-process probes of query and service on the workload's own
	// engine, shape by shape.
	ctx := context.Background()
	view := w.svc.Catalog().Pin()
	card := query.StaticCard{}
	for _, s := range view.Schemas() {
		card[s.Name] = s.Rows
	}
	opts := w.serviceConfig("", nil).Defaults
	k := reps(128, w.smoke)
	var parse, plan, cost, lower, hit, miss, overhead, roundtrip []float64
	cl := w.newClient()
	var modeled, observed uint64
	fresh := uint64(1 << 18) // literals the loops never reached
	for _, sh := range w.shapes {
		sql := sh.sql(0)
		var q *query.Query
		var node query.PlanNode
		var err error
		parse = append(parse, us(medianDur(k, func() { q, err = query.Parse(sql) })))
		if err != nil {
			return all, err
		}
		plan = append(plan, us(medianDur(k, func() { node, err = query.BuildPlanCfg(q, view.Has, query.PlanConfig{}) })))
		if err != nil {
			return all, err
		}
		cost = append(cost, us(medianDur(k, func() { query.ComputePlanCost(node, card, opts) })))
		lower = append(lower, us(medianDur(k, func() { _, err = query.LowerPlan(node) })))
		if err != nil {
			return all, err
		}
		var stmt *service.Stmt
		hit = append(hit, us(medianDur(k, func() { stmt, err = w.svc.Prepare(ctx, sql) })))
		if err != nil {
			return all, err
		}
		miss = append(miss, us(medianDur(k, func() {
			fresh++
			_, err = w.svc.Prepare(ctx, sh.sql(fresh))
		})))
		if err != nil {
			return all, err
		}
		var over, wall []float64
		for i := 0; i < max(k/8, 3); i++ {
			t0 := time.Now()
			st, err := w.svc.Prepare(ctx, sql, service.WithStats(true))
			if err != nil {
				return all, err
			}
			t1 := time.Now()
			_, ps, err := st.Exec(ctx)
			if err != nil {
				return all, err
			}
			over = append(over, us(time.Since(t1)-ps.Total))
			wall = append(wall, ms(time.Since(t0)))
			if i == 0 {
				modeled += stmt.Model().Comparators
				observed += ps.Comparators
			}
		}
		overhead = append(overhead, median(over))
		var overHTTP []float64
		for range wall {
			out, err := w.read(cl, sh, 0, 0)
			if err != nil {
				return all, err
			}
			overHTTP = append(overHTTP, ms(out.wall))
		}
		roundtrip = append(roundtrip, 1e3*(median(overHTTP)-median(wall)))
	}
	rep.set("query.parse_us", mean(parse))
	rep.set("query.plan_us", mean(plan))
	rep.set("query.cost_us", mean(cost))
	rep.set("query.lower_us", mean(lower))
	rep.set("service.prepare_hit_us", mean(hit))
	rep.set("service.prepare_miss_us", mean(miss))
	rep.set("service.exec_overhead_us", mean(overhead))
	rep.set("http.roundtrip_overhead_us", mean(roundtrip))
	rep.set("query.modeled_comparators", float64(modeled))
	rep.set("query.observed_comparators", float64(observed))
	rep.set("query.model_exact", b2f(modeled == observed))

	// The layers under the operators, on the workload's store mode.
	var cipher *crypto.Cipher
	left, right := w.tabs.tables["mid"], w.tabs.tables["mid2"]
	if w.durable {
		c, _, err := crypto.NewRandom()
		if err != nil {
			return all, err
		}
		cipher = c
		left, right = w.tabs.tables["a"], w.tabs.tables["b"]
	}
	twin := &joinWorkload{sealed: w.durable, cipher: cipher, n: len(left)}
	var coreStats []core.Stats
	for i := 0; i < 5; i++ {
		_, st := twin.decomposed(nil, 0, joinInput{left: left, right: right}, nil, nil)
		coreStats = append(coreStats, st)
	}
	setCoreUnitCosts(rep, coreStats)
	probeObliv(rep, w.smoke)
	probeTable(rep, cipher, w.smoke)
	if cipher != nil {
		if err := probeCrypto(rep, cipher, w.smoke); err != nil {
			return all, err
		}
	}
	if err := probeBitonic(rep, twin.alloc(nil, nil), 2*len(left), w.smoke); err != nil {
		return all, err
	}
	// The time model's worst residual over the shapes that sort.
	var residual []float64
	for _, sh := range w.shapes {
		st, err := w.svc.Prepare(ctx, sh.sql(0), service.WithStats(true))
		if err != nil {
			return all, err
		}
		_, ps, err := st.Exec(ctx)
		if err != nil {
			return all, err
		}
		if m := st.Model(); m.Comparators > 0 {
			residual = append(residual, residualPct(rep, m.Comparators, m.RouteOps, ps.Total))
		}
	}
	rep.set("query.time_model_residual_pct", percentile(residual, 1))

	if err := w.catalogAndWAL(rep, plain, cache1.Misses-cache0.Misses); err != nil {
		return all, err
	}
	return all, nil
}

// catalogAndWAL reports the write path: the catalog's share on a
// memory-only engine, the WAL's on a durable one over the counting
// filesystem, and — for the durable workload — the client-observed
// commit latency, recovery time and space.
func (w *sqlWorkload) catalogAndWAL(rep *report, plain loopResult, misses uint64) error {
	rows := w.sz.hot
	keys := distinctKeys(rand.New(rand.NewSource(w.seed)), rows)
	commits := reps(64, w.smoke)
	replaceLoop := func(svc *service.Service) (time.Duration, error) {
		if err := svc.Register("t", hotRows(keys, 0, 0)); err != nil {
			return 0, err
		}
		var err error
		d := medianDur(commits, func() {
			if e := svc.Replace("t", hotRows(keys, 0, 1)); e != nil {
				err = e
			}
		})
		return d, err
	}
	mem, err := service.New(w.serviceConfig("", nil))
	if err != nil {
		return err
	}
	catalogD, err := replaceLoop(mem)
	if err != nil {
		return err
	}
	if err := mem.Shutdown(context.Background()); err != nil {
		return err
	}
	rep.set("catalog.replace_us", us(catalogD))
	if !w.durable {
		return nil
	}

	// A second durable engine in its own directory, so the counts are
	// of exactly these commits.
	dir, err := os.MkdirTemp(w.workDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs := newCountingFS()
	svc, err := service.New(w.serviceConfig(dir, fs))
	if err != nil {
		return err
	}
	c0 := fs.counts()
	walD, err := replaceLoop(svc)
	if err != nil {
		return err
	}
	c1 := fs.counts()
	n := float64(commits + 1) // the register and the replaces
	rep.set("wal.commit_us", us(walD-catalogD))
	rep.set("wal.fs_us_per_commit", us(c1.busy-c0.busy)/n)
	rep.set("wal.fsyncs_per_commit", float64(c1.syncs-c0.syncs)/n)
	rep.set("wal.write_calls_per_commit", float64(c1.writes-c0.writes)/n)
	rep.set("wal.bytes_per_commit", float64(c1.bytes-c0.bytes)/n)
	crash := dir + "-crash"
	defer os.RemoveAll(crash)
	if _, err := copyFlushed(fs, dir, crash); err != nil {
		return err
	}
	t0 := time.Now()
	re, err := service.New(w.serviceConfig(crash, nil))
	replay := time.Since(t0)
	if err != nil {
		return err
	}
	if got := re.Recovery().Replayed; got != commits+1 {
		return fmt.Errorf("replayed %d WAL records, committed %d", got, commits+1)
	}
	rep.set("wal.replay_us_per_record", us(replay)/n)
	if err := re.Shutdown(context.Background()); err != nil {
		return err
	}
	t0 = time.Now()
	if err := svc.Checkpoint(); err != nil {
		return err
	}
	rep.set("wal.snapshot_ms", ms(time.Since(t0)))
	if err := svc.Shutdown(context.Background()); err != nil {
		return err
	}

	writes := plain.lat["write"]
	rep.set("durable.commit_p50_ms", percentile(writes, 0.5))
	rep.set("durable.commit_p90_ms", percentile(writes, 0.9))
	rep.set("share.wal_of_write_pct", 100*ms(walD-catalogD)/percentile(writes, 0.5))
	rep.set("service.plan_invalidations", float64(misses))
	reopen, stored, err := w.checkDurability()
	if err != nil {
		return err
	}
	rep.set("durable.recover_ms", median(reopen))
	rep.set("durable.stored_bytes_per_user_byte", float64(stored)/float64(w.userBytes))
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
