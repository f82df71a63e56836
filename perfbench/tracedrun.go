package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"medrelax/internal/core"
	"medrelax/internal/engine"
	"medrelax/internal/match"
	"medrelax/internal/ontology"
)

// replayKeys is how many distinct keys the single-goroutine replay runs
// through the kernel, and replayRequests how many requests it sends
// through a replica handler.
const (
	replayKeys     = 300
	replayRequests = 2000
)

// runTraced is the per-layer run. The offline phase runs in-process stage
// by stage; then the stack is assembled twice from public constructors,
// once bare and once with every layer boundary wrapped, and both receive
// the same reference-rate traffic. The bare run's p50 is the baseline of
// the tracing overhead; the wrapped run's spans give self times. A
// single-goroutine replay of the same inputs gives exact allocation counts
// and per-path kernel times.
func runTraced(cfg runConfig) (*report, error) {
	w := cfg.w
	rep := newReport()
	off, err := runOffline(cfg)
	if err != nil {
		return nil, err
	}
	live, err := engine.LoadSnapshot(off.plain)
	if err != nil {
		return nil, err
	}
	defer live.Close()
	half := cfg.window / 2
	client := newClient(conns())

	// Bare stack: the untraced baseline.
	bare, err := buildInproc(w, off.bundle, nil)
	if err != nil {
		return nil, err
	}
	terms, err := fetchTerms(client, bare.base)
	if err != nil {
		bare.close()
		return nil, err
	}
	ks, err := newKeySource(w, terms, findingContexts(live), cfg.seed)
	if err != nil {
		bare.close()
		return nil, err
	}
	bareWin, err := runWindow(w, half, ks, newSender(w, ks, client, bare.base, nil), cfg.seed, false, nil)
	bare.close()
	if err != nil {
		return nil, err
	}

	// Wrapped stack, same keys and schedule.
	rec := newRecorder()
	wrapped, err := buildInproc(w, off.bundle, rec)
	if err != nil {
		return nil, err
	}
	tks, err := newKeySource(w, terms, findingContexts(live), cfg.seed)
	if err != nil {
		wrapped.close()
		return nil, err
	}
	var nextID atomic.Int64
	tagged := newSender(w, tks, client, wrapped.base, func(r *http.Request, j *job) {
		if j.id == 0 && rec.on.Load() {
			j.id = nextID.Add(1)
		}
		if j.id != 0 {
			r.Header.Set(reqHeader, strconv.FormatInt(j.id, 10))
		}
	})
	counters := []string{"medrelax_relax_cache_hits_total", "medrelax_relax_cache_misses_total", "medrelax_relax_cache_collapsed_total"}
	var before, after []float64
	var entriesBefore float64
	// The recorder switches on when the reference phase starts, so warm-up
	// spans are not kept.
	win, err := runWindow(w, half, tks, tagged, cfg.seed, false, func() {
		for _, c := range counters {
			before = append(before, wrapped.counter(c))
		}
		entriesBefore = wrapped.cacheEntries()
		rec.on.Store(true)
	})
	rec.on.Store(false)
	for _, c := range counters {
		after = append(after, wrapped.counter(c))
	}
	entriesAfter := wrapped.cacheEntries()
	retries := wrapped.routerRetries()
	wrapped.close()
	if err != nil {
		return nil, err
	}

	// Answers of both runs are checked like the end-to-end run's. The
	// spans cover the reference phase and, on routed, the reload phase.
	var answered, sent, traced []*job
	for _, win := range []*window{bareWin, win} {
		for _, ph := range []phase{win.ref, win.reload} {
			answered = append(answered, ph.sent(true)...)
			sent = append(sent, ph.sent(false)...)
		}
	}
	traced = append(win.ref.sent(true), win.reload.sent(true)...)
	// Both key sources hold the same table, so ks indexes either run's keys.
	chk, err := checkAnswers(live, ks, answered, w.checkMax, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep.Correct = chk.wrong == 0
	for _, j := range sent {
		rep.Attempted++
		if j.failed || j.wrong {
			rep.Failed++
		}
	}

	late := sortedCopy(append(win.ref.lateness(), win.reload.lateness()...))
	rep.set("client.late_p50_ms", quantile(late, 0.5), "ms")
	rep.set("client.late_p99_ms", quantile(late, 0.99), "ms")

	an := analyse(w, rec.spans, traced, rep)
	d := func(i int) float64 { return after[i] - before[i] }
	if lookups := d(0) + d(1) + d(2); lookups > 0 {
		rep.set("serving.hit_ratio", d(0)/lookups, "ratio")
	} else {
		rep.set("serving.hit_ratio", 0, "ratio")
	}
	rep.set("serving.collapsed", d(2), "count")
	rep.set("serving.evictions", max(0, d(1)-(entriesAfter-entriesBefore)-float64(rec.purged.Load())), "count")
	rep.set("router.retries", retries, "count")

	// Single-goroutine replay on the bare stack, whose handlers carry no
	// wrappers: exact allocation counts and per-path kernel times. ks
	// continues past the keys already sent, so sweep's replay misses too.
	allocs, err := replayHandler(w, bare.handlers[0], ks, replayRequests)
	if err != nil {
		return nil, err
	}
	rep.set("server.allocs_per_req", allocs, "count")
	served, err := engine.LoadSnapshot(off.bundle)
	if err != nil {
		return nil, err
	}
	defer served.Close()
	cr, err := replayCore(served, live, replayKeyList(w, terms, findingContexts(live), cfg.seed))
	if err != nil {
		return nil, err
	}
	cr.report(rep, w)

	rep.set("core.ingest_s", off.ingestS, "s")
	rep.set("core.materialize_s", off.materializeS, "s")
	rep.set("core.index_s", off.indexS, "s")
	rep.set("core.mat_entries", off.matEntries, "count")
	rep.set("core.postings", off.postings, "count")
	rep.set("persist.save_s", off.saveS, "s")
	rep.set("persist.open_ms", off.openMs, "ms")
	rep.set("persist.build_peak_rss_mb", off.buildPeakMB, "MB")
	var reloads []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := bare.engines[0].Reload(); err != nil {
			return nil, err
		}
		reloads = append(reloads, float64(time.Since(start))/1e6)
	}
	rep.set("persist.reload_ms", median(reloads), "ms")

	tracedP50 := quantile(sortedCopy(win.ref.latencies()), 0.5)
	bareP50 := quantile(sortedCopy(bareWin.ref.latencies()), 0.5)
	rep.set("trace.unattributed_share", an.unattributedShare, "ratio")
	rep.set("trace.overhead_p50", tracedP50/bareP50-1, "ratio")

	rep.details["reconciliation"] = an.table
	rep.details["traced_run"] = map[string]any{
		"rate_rps": w.refRate, "seconds": half.Seconds(), "requests": len(traced),
		"p50_ms_traced": tracedP50, "p50_ms_bare": bareP50, "spans": len(rec.spans),
		"reload_spans_ms": an.reloadMs,
	}
	rep.details["offline"] = map[string]any{"bundle_bytes": off.bytes, "bundle": off.bundle[strings.LastIndex(off.bundle, "/")+1:]}
	rep.details["answer_check"] = map[string]any{
		"reference": "engine.Snapshot.Relax on the plain bundle (live path)", "distinct_keys": chk.distinctKeys,
		"checked_keys": chk.checkedKeys, "answers_compared": chk.checked, "wrong_answers": chk.wrong,
	}
	rep.details["replay"] = cr.details
	return rep, nil
}

// analysis is what the spans of the traced run say beyond the per-layer
// metrics analyse sets directly.
type analysis struct {
	table             []map[string]any // reconciliation rows
	unattributedShare float64
	reloadMs          []float64 // replica reload spans
}

// busy is the length of the union of the spans' intervals.
func busy(spans []*span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]*span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	total := time.Duration(0)
	curS, curE := s[0].start, s[0].end
	for _, x := range s[1:] {
		if x.start > curE {
			total += curE - curS
			curS, curE = x.start, x.end
			continue
		}
		if x.end > curE {
			curE = x.end
		}
	}
	return total + curE - curS
}

// within reports whether inner lies inside outer's interval.
func within(inner, outer *span) bool { return inner.start >= outer.start && inner.end <= outer.end }

// analyse joins spans into per-request trees and computes self times.
// A span's self time is its duration minus the union of its children.
// Children are found by request id; an engine call that singleflight ran
// on a detached context carries no id and is joined to the serving call
// of the same replica and key whose interval contains it.
func analyse(w spec, spans []*span, jobs []*job, rep *report) *analysis {
	a := &analysis{}
	type rk struct {
		req     int64
		replica int
		layer   string
	}
	by := map[rk][]*span{}
	routers := map[int64]*span{}
	servingByKey := map[string][]*span{}
	var orphans []*span
	for _, s := range spans {
		switch {
		case s.layer == "engine" && s.req == 0:
			orphans = append(orphans, s)
			continue
		case s.layer == "router":
			if s.endpoint == "/admin/reload" {
				continue
			}
			routers[s.req] = s
		case s.layer == "replica" && s.endpoint == "/admin/reload":
			a.reloadMs = append(a.reloadMs, ms(s.dur()))
			continue
		case s.layer == "serving" && s.key != "":
			k := strconv.Itoa(s.replica) + "\x1e" + s.key
			servingByKey[k] = append(servingByKey[k], s)
		}
		if s.layer != "router" {
			by[rk{s.req, s.replica, s.layer}] = append(by[rk{s.req, s.replica, s.layer}], s)
		}
	}
	// Join id-less engine spans to the latest-starting serving call of the
	// same replica and key that contains them: the flight's leader.
	for _, e := range orphans {
		var best *span
		for _, s := range servingByKey[strconv.Itoa(e.replica)+"\x1e"+e.key] {
			if within(e, s) && (best == nil || s.start > best.start) {
				best = s
			}
		}
		if best != nil {
			k := rk{best.req, best.replica, "engine"}
			by[k] = append(by[k], e)
		}
	}

	var (
		transport, routerSelf, serverSelf, servingSelf, engineDur []float64
		fanout, routerBytes, respBytes                            []float64
		pathCount                                                 = map[core.ServePath]float64{}
		engineCalls                                               float64
		shed                                                      float64
	)
	type parts struct {
		lat, late, queue, transport, router, server, serving, engine, unattributed, rtt float64
	}
	var rows []parts
	for _, j := range jobs {
		if j.id == 0 || j.failed {
			continue
		}
		rtt := j.done - j.start
		var replicas []*span
		for r := 0; r < w.replicas; r++ {
			replicas = append(replicas, by[rk{j.id, r, "replica"}]...)
		}
		if len(replicas) == 0 {
			continue
		}
		p := parts{lat: ms(j.done - j.due), late: ms(j.released - j.due), queue: ms(j.start - j.released), rtt: ms(rtt)}
		outer := replicas[0]
		if w.routed {
			rs, ok := routers[j.id]
			if !ok {
				continue
			}
			outer = rs
			self := rs.dur() - busy(replicas)
			routerSelf = append(routerSelf, us(self))
			p.router = ms(self)
			fanout = append(fanout, float64(len(replicas)))
			routerBytes = append(routerBytes, float64(rs.inBytes+rs.outBytes))
		}
		tr := rtt - outer.dur()
		transport = append(transport, us(tr))
		p.transport = ms(tr)
		// The replica that finished last is on the critical path.
		crit := replicas[0]
		for _, r := range replicas {
			if r.end > crit.end {
				crit = r
			}
		}
		for _, r := range replicas {
			var servings []*span
			for _, s := range by[rk{j.id, r.replica, "serving"}] {
				if within(s, r) {
					servings = append(servings, s)
				}
			}
			sself := r.dur() - busy(servings)
			serverSelf = append(serverSelf, us(sself))
			respBytes = append(respBytes, float64(r.outBytes))
			if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
				shed++
			}
			var svSelf, engTime time.Duration
			for _, s := range servings {
				var engines []*span
				for _, e := range by[rk{j.id, r.replica, "engine"}] {
					if within(e, s) {
						engines = append(engines, e)
					}
				}
				self := s.dur() - busy(engines)
				servingSelf = append(servingSelf, us(self))
				svSelf += self
				for _, e := range engines {
					engineDur = append(engineDur, us(e.dur()))
					engineCalls++
					engTime += e.dur()
					for _, path := range e.paths {
						pathCount[path]++
					}
				}
			}
			if r == crit {
				p.server, p.serving, p.engine = ms(sself), ms(svSelf), ms(engTime)
			}
		}
		p.unattributed = p.rtt - p.transport - p.router - p.server - p.serving - p.engine
		rows = append(rows, p)
	}

	pct := func(xs []float64, q float64) float64 { return quantile(sortedCopy(xs), q) }
	rep.set("client.transport_p50_us", pct(transport, 0.5), "us")
	rep.set("router.self_p50_us", pct(routerSelf, 0.5), "us")
	rep.set("router.self_p99_us", pct(routerSelf, tailQuantile(len(routerSelf))), "us")
	rep.set("router.fanout_mean", mean(fanout), "count")
	rep.set("router.body_bytes_mean", mean(routerBytes), "bytes")
	rep.set("server.self_p50_us", pct(serverSelf, 0.5), "us")
	rep.set("server.self_p99_us", pct(serverSelf, tailQuantile(len(serverSelf))), "us")
	rep.set("server.resp_bytes_mean", mean(respBytes), "bytes")
	rep.set("serving.self_p50_us", pct(servingSelf, 0.5), "us")
	rep.set("serving.shed", shed, "count")
	rep.set("engine.p50_us", pct(engineDur, 0.5), "us")
	rep.set("engine.p99_us", pct(engineDur, tailQuantile(len(engineDur))), "us")
	rep.set("engine.calls", engineCalls, "count")
	answered := pathCount[core.PathMaterialized] + pathCount[core.PathIndexed] + pathCount[core.PathLive]
	share := func(p core.ServePath) float64 {
		if answered == 0 {
			return 0
		}
		return pathCount[p] / answered
	}
	rep.set("core.path_materialized", share(core.PathMaterialized), "ratio")
	rep.set("core.path_indexed", share(core.PathIndexed), "ratio")
	rep.set("core.path_live", share(core.PathLive), "ratio")

	// Reconciliation: latency from the due time is lateness, queueing for
	// a connection, and the client RTT; the RTT splits into transport and
	// the self time of each layer on the critical path, plus what no span
	// covers. Shown for the requests around the median and for all.
	var sumRTT, sumUn float64
	for _, p := range rows {
		sumRTT += p.rtt
		sumUn += p.unattributed
	}
	if sumRTT > 0 {
		a.unattributedShare = sumUn / sumRTT
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].lat < rows[j].lat })
	band := rows
	if n := len(rows); n >= 20 {
		band = rows[n*45/100 : n*55/100]
	}
	avg := func(rs []parts, f func(parts) float64) float64 {
		if len(rs) == 0 {
			return 0
		}
		s := 0.0
		for _, p := range rs {
			s += f(p)
		}
		return s / float64(len(rs))
	}
	fields := []struct {
		name string
		f    func(parts) float64
	}{
		{"latency_from_due", func(p parts) float64 { return p.lat }},
		{"client.late", func(p parts) float64 { return p.late }},
		{"client.queue", func(p parts) float64 { return p.queue }},
		{"client.rtt", func(p parts) float64 { return p.rtt }},
		{"transport", func(p parts) float64 { return p.transport }},
		{"router.self", func(p parts) float64 { return p.router }},
		{"server.self", func(p parts) float64 { return p.server }},
		{"serving.self", func(p parts) float64 { return p.serving }},
		{"engine+core", func(p parts) float64 { return p.engine }},
		{"unattributed", func(p parts) float64 { return p.unattributed }},
	}
	for _, f := range fields {
		a.table = append(a.table, map[string]any{
			"row": f.name, "p45_p55_mean_ms": avg(band, f.f), "all_mean_ms": avg(rows, f.f),
		})
	}
	return a
}

// replayHandler sends n requests of the workload's shape through a replica
// handler on this goroutine, without a network, and returns the heap
// allocations per request. For repeat-key workloads an uncounted pass
// over the same requests fills the cache first, as in serving. Requests
// and recorders are built before counting starts.
func replayHandler(w spec, h http.Handler, ks *keySource, n int) (float64, error) {
	targets := make([]string, n)
	bodies := make([][]byte, n)
	for i := range targets {
		keys := ks.next()
		if keys == nil {
			return 0, fmt.Errorf("key source exhausted in the replay")
		}
		if w.batch == 0 {
			targets[i] = "/relax?" + ks.keys[keys[0]].query
			continue
		}
		req := batchRequest{}
		for _, ki := range keys {
			k := ks.keys[ki]
			req.Queries = append(req.Queries, batchItem{Term: k.term, Context: k.ctx, K: k.k})
		}
		b, err := json.Marshal(req)
		if err != nil {
			return 0, err
		}
		targets[i], bodies[i] = "/relax/batch", b
	}
	build := func() ([]*http.Request, []*httptest.ResponseRecorder) {
		reqs := make([]*http.Request, n)
		recs := make([]*httptest.ResponseRecorder, n)
		for i := range reqs {
			if bodies[i] != nil {
				reqs[i] = httptest.NewRequest(http.MethodPost, targets[i], bytes.NewReader(bodies[i]))
			} else {
				reqs[i] = httptest.NewRequest(http.MethodGet, targets[i], nil)
			}
			recs[i] = httptest.NewRecorder()
		}
		return reqs, recs
	}
	if w.name != "sweep" {
		reqs, recs := build()
		for i, r := range reqs {
			h.ServeHTTP(recs[i], r)
		}
	}
	reqs, recs := build()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, r := range reqs {
		h.ServeHTTP(recs[i], r)
	}
	runtime.ReadMemStats(&m1)
	for _, rec := range recs {
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("replay answered status %d", rec.Code)
		}
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// coreReplay holds the kernel replay's per-path timings and allocations.
type coreReplay struct {
	times   map[core.ServePath][]float64 // microseconds
	allocs  map[core.ServePath][]float64
	resolve []float64 // microseconds: context parse plus term mapping
	details map[string]any
}

// replayCore runs each key through the served snapshot's relaxer: resolve
// (context parse and the engine's term-to-concept mapper) is timed alone,
// the traced entry point names the serve path, then RelaxConceptContext
// times the kernel alone.
// When the served bundle is accelerated, the same keys also run the live
// path on the plain bundle: the same-run baseline.
func replayCore(served, live *engine.Snapshot, keys []key) (*coreReplay, error) {
	cr := &coreReplay{times: map[core.ServePath][]float64{}, allocs: map[core.ServePath][]float64{}}
	ctx := context.Background()
	mapperFor := func(s *engine.Snapshot) match.Mapper {
		g := s.Ingestion().Graph
		return match.NewCombined(match.NewExact(g), match.NewEdit(g, 0), match.NewLookupService(g))
	}
	sm, lm := mapperFor(served), mapperFor(live)
	mat, idx := served.AccelActive()
	var m0, m1 runtime.MemStats
	for _, k := range keys {
		start := time.Now()
		qc, err := ontology.ParseContext(k.ctx)
		if err != nil {
			return nil, err
		}
		q, ok := sm.Map(k.term)
		if !ok {
			return nil, fmt.Errorf("replay: term %q does not map", k.term)
		}
		cr.resolve = append(cr.resolve, us(time.Since(start)))
		_, path, err := served.Relaxer().RelaxTermContextTraced(ctx, k.term, &qc, k.k)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m0)
		start = time.Now()
		if _, err := served.Relaxer().RelaxConceptContext(ctx, q, &qc, k.k); err != nil {
			return nil, err
		}
		kernel := time.Since(start)
		runtime.ReadMemStats(&m1)
		cr.times[path] = append(cr.times[path], us(kernel))
		cr.allocs[path] = append(cr.allocs[path], float64(m1.Mallocs-m0.Mallocs))
		if mat || idx {
			lq, ok := lm.Map(k.term)
			if !ok {
				return nil, fmt.Errorf("replay: term %q does not map on the plain bundle", k.term)
			}
			runtime.ReadMemStats(&m0)
			start := time.Now()
			if _, err := live.Relaxer().RelaxConceptContext(ctx, lq, &qc, k.k); err != nil {
				return nil, err
			}
			d := time.Since(start)
			runtime.ReadMemStats(&m1)
			cr.times[core.PathLive] = append(cr.times[core.PathLive], us(d))
			cr.allocs[core.PathLive] = append(cr.allocs[core.PathLive], float64(m1.Mallocs-m0.Mallocs))
		}
	}
	counts := map[string]int{}
	for p, xs := range cr.times {
		counts[p.String()] = len(xs)
	}
	cr.details = map[string]any{"keys": len(keys), "samples_by_path": counts}
	return cr, nil
}

func (cr *coreReplay) report(rep *report, w spec) {
	for _, p := range []core.ServePath{core.PathMaterialized, core.PathIndexed, core.PathLive} {
		xs := sortedCopy(cr.times[p])
		rep.set("core."+p.String()+"_p50_us", quantile(xs, 0.5), "us")
		rep.set("core."+p.String()+"_p99_us", quantile(xs, tailQuantile(len(xs))), "us")
	}
	for _, p := range []core.ServePath{core.PathMaterialized, core.PathIndexed, core.PathLive} {
		rep.set("core.allocs_per_op."+p.String(), mean(cr.allocs[p]), "count")
	}
	rep.set("engine.resolve_p50_us", median(cr.resolve), "us")
}

// replayKeyList is the distinct keys the kernel replay runs: the first
// replayKeys keys the workload would send.
func replayKeyList(w spec, terms, ctxs []string, seed int64) []key {
	ks, err := newKeySource(w, terms, ctxs, seed)
	if err != nil {
		return nil
	}
	seen := map[int]bool{}
	var out []key
	for tries := 0; len(out) < replayKeys && tries < 100*replayKeys; tries++ {
		keys := ks.next()
		if keys == nil {
			break
		}
		for _, ki := range keys {
			if !seen[ki] && len(out) < replayKeys {
				seen[ki] = true
				out = append(out, ks.keys[ki])
			}
		}
	}
	return out
}
