package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"medrelax/internal/engine"
)

// stack is one set-up of the served system.
type stack struct {
	bundle  string
	servers []*proc // kbserver replicas
	router  *proc   // nil unless routed
	base    string  // URL the generator targets
}

func (s *stack) procs() []*proc {
	out := append([]*proc(nil), s.servers...)
	if s.router != nil {
		out = append(out, s.router)
	}
	return out
}

func (s *stack) stop() {
	for _, p := range s.procs() {
		p.stop()
	}
}

// bundleArgs are the medrelax flags building w's bundle: the shipped flat
// format, accelerated at the CLI's default head for sweep.
func bundleArgs(w spec, path string) []string {
	args := []string{"-save", path, "-format", "flat", "-quiet"}
	if w.accel {
		args = append(args, "-materialize", "-index")
	}
	return args
}

// setUp builds the bundle in an empty directory and starts every serving
// process, returning once each answers /healthz. The build's peak RSS is
// returned beside the stack.
func setUp(cfg runConfig, dir string) (*stack, float64, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	w := cfg.w
	st := &stack{bundle: filepath.Join(dir, "bundle.mrx")}
	peak, err := runTool(dir, filepath.Join(cfg.bin, "medrelax"), bundleArgs(w, st.bundle)...)
	if err != nil {
		return nil, 0, err
	}
	probe := newClient(1)
	for i := 0; i < w.replicas; i++ {
		p, err := startProc(dir, filepath.Join(cfg.bin, "kbserver"), "kbserver"+strconv.Itoa(i), i,
			"-load", st.bundle, "-trace-sample", "0")
		if err != nil {
			return nil, 0, err
		}
		track(p)
		st.servers = append(st.servers, p)
	}
	for _, p := range st.servers {
		if err := p.waitHealthy(probe, time.Minute); err != nil {
			return nil, 0, err
		}
	}
	st.base = "http://" + st.servers[0].addr
	if w.routed {
		args := []string{"-trace-sample", "0"}
		for _, p := range st.servers {
			args = append(args, "-replica", p.addr)
		}
		p, err := startProc(dir, filepath.Join(cfg.bin, "kbrouter"), "kbrouter", w.replicas, args...)
		if err != nil {
			return nil, 0, err
		}
		track(p)
		st.router = p
		if err := p.waitHealthy(probe, time.Minute); err != nil {
			return nil, 0, err
		}
		st.base = "http://" + p.addr
	}
	return st, peak, nil
}

// probe is how long one ladder probe offers its rate.
const probe = 750 * time.Millisecond

// window holds the phases of one measured window.
type window struct {
	warm    []phase
	ladder  []phase // probes in the order run
	maxRate float64 // the staircase's estimate; see staircase
	ref     phase
	reload  phase // workloads with reloads: the phase that carries them
}

// runWindow warms the system up, then finds max_rate_rps on the ladder,
// then runs the reference phase for 60 % of the measured time (all of it
// without the ladder), then the reload phase of a workload that has one.
// The reloads come last so that they cannot leave a cold cache under a
// probe or the reference phase.
func runWindow(w spec, total time.Duration, ks *keySource, send sender, seed int64, withLadder bool, atRef func()) (*window, error) {
	rnd := rand.New(rand.NewSource(seed ^ 0x5eed))
	n := conns()
	win := &window{}
	// Warm-up is untimed: hot and routed ask every key once, closed-loop,
	// so the cache holds the whole working set; then a short open-loop
	// stretch at the reference rate settles connections and the runtime.
	if w.name != "sweep" {
		var jobs []*job
		per := 1
		if w.batch > 0 {
			per = w.batch
		}
		for i := 0; i < len(ks.keys); i += per {
			j := &job{}
			for k := i; k < i+per && k < len(ks.keys); k++ {
				j.keys = append(j.keys, k)
			}
			jobs = append(jobs, j)
		}
		win.warm = append(win.warm, runPhase(send, jobs, 0, 0, n, len(jobs)+1))
	}
	wb := scheduleJobs(ks, rnd, w.refRate, probe/2, 0)
	if wb == nil {
		return nil, fmt.Errorf("key source exhausted during warm-up")
	}
	win.warm = append(win.warm, runPhase(send, wb, w.refRate, probe/2, n, giveUp(w, w.refRate)))

	refDur := total
	if withLadder {
		probes, rate, err := staircase(w, ks, rnd, send, n)
		if err != nil {
			return nil, err
		}
		win.ladder, win.maxRate = probes, rate
		refDur = total * 6 / 10
	}
	ref := scheduleJobs(ks, rnd, w.refRate, refDur, 0)
	if ref == nil {
		return nil, fmt.Errorf("key source exhausted in the reference phase")
	}
	if atRef != nil {
		atRef()
	}
	win.ref = runPhase(send, ref, w.refRate, refDur, n, giveUp(w, w.refRate))
	// Reloads get a phase of their own after the reference phase, at a
	// rate that leaves room for the miss burst each one causes. Inside the
	// reference phase the queue a burst builds, whose depth varies from
	// run to run by up to five times, alone decided p99_ms.
	if w.reloadEvery > 0 {
		d := 2 * w.reloadEvery
		jobs := scheduleJobs(ks, rnd, w.reloadRate, d, w.reloadEvery)
		if jobs == nil {
			return nil, fmt.Errorf("key source exhausted in the reload phase")
		}
		win.reload = runPhase(send, jobs, w.reloadRate, d, n, giveUp(w, w.reloadRate))
	}
	return win, nil
}

// ladderProbes is how many probes the staircase runs, and stepStart its
// step in ladder rates until the first reversal.
const (
	ladderProbes = 8
	stepStart    = 4
)

// staircase finds max_rate_rps with an up-down staircase on the ladder.
// It starts in the middle; a probe that passes moves it up, one that
// fails moves it down, by stepStart rates until the direction first
// reverses and by one rate after. From the first reversal on, the probed
// rates straddle the highest rate that meets the limits, and their mean
// is the estimate. Unlike a bisection, where the first probe near that
// rate decides the rest, every probe after the reversal counts the same,
// so one episode of stolen CPU time moves only the probes it overlaps.
// A staircase that never reverses ran off the ladder: the top rate if it
// kept passing, 0 if it kept failing.
func staircase(w spec, ks *keySource, rnd *rand.Rand, send sender, conns int) ([]phase, float64, error) {
	rates := w.ladder()
	i, step, last := len(rates)/2, stepStart, 0
	var probes []phase
	var settled []float64
	for k := 0; k < ladderProbes; k++ {
		jobs := scheduleJobs(ks, rnd, rates[i], probe, 0)
		if jobs == nil {
			return nil, 0, fmt.Errorf("key source exhausted in the ladder")
		}
		ph := runPhase(send, jobs, rates[i], probe, conns, giveUp(w, rates[i]))
		probes = append(probes, ph)
		dir := -1
		if passes(w, ph) {
			dir = 1
		}
		if last != 0 && dir != last {
			step = 1
		}
		if step == 1 {
			settled = append(settled, rates[i])
		}
		last = dir
		i = min(max(i+dir*step, 0), len(rates)-1)
	}
	switch {
	case len(settled) > 0:
		return probes, mean(settled), nil
	case last > 0:
		return probes, rates[len(rates)-1], nil
	default:
		return probes, 0, nil
	}
}

// giveUp is the waiting-job count past which a phase is abandoned: twice
// the requests due within the p99 limit, and never fewer than 50.
func giveUp(w spec, rate float64) int {
	n := int(2 * rate * w.p99LimitMs / 1000)
	if n < 50 {
		n = 50
	}
	return n
}

// passes reports whether a phase met the workload's limits: not abandoned,
// errors within errLimit, tail latency within p99LimitMs, and a backlog at
// the end of the schedule no larger than the requests due within the limit.
func passes(w spec, ph phase) bool {
	sent := ph.sent(false)
	if ph.abandoned || len(sent) == 0 {
		return false
	}
	if float64(ph.failures())/float64(len(sent)) > errLimit {
		return false
	}
	lat := sortedCopy(ph.latencies())
	if quantile(lat, tailQuantile(len(lat))) > w.p99LimitMs {
		return false
	}
	return float64(ph.backlog) <= max(float64(conns()), ph.rate*w.p99LimitMs/1000)
}

// achieved is the completion rate of a phase in requests per second.
func achieved(ph phase) float64 {
	n := 0
	for _, j := range ph.sent(true) {
		if !j.failed {
			n++
		}
	}
	return float64(n) / ph.elapsed.Seconds()
}

// fetchTerms asks the served system for its servable terms (GET /terms).
func fetchTerms(client *http.Client, base string) ([]string, error) {
	status, body, err := doWith(context.Background(), client, http.MethodGet, base+"/terms?n=100000", nil, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /terms: status %d", status)
	}
	var resp struct {
		Terms []string `json:"terms"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("GET /terms: %w", err)
	}
	return resp.Terms, nil
}

// findingContexts lists the finding contexts of the snapshot's ontology.
func findingContexts(snap *engine.Snapshot) []string {
	var out []string
	for _, c := range snap.Ingestion().Ontology.ContextsForRange("Finding") {
		out = append(out, c.String())
	}
	return out
}

// runServed is the end-to-end run: set up the real binaries setups times,
// measure the window against the last set-up, check every answer.
func runServed(cfg runConfig) (*report, error) {
	w := cfg.w
	rep := newReport()

	// sweep's answers are checked against the plain bundle's live path:
	// accelerated answers must be byte-identical to it. It is built before
	// set-up timing starts and is not part of setup_s.
	var refBundle string
	if w.accel {
		refBundle = filepath.Join(cfg.work, "reference", "plain.mrx")
		if err := os.MkdirAll(filepath.Dir(refBundle), 0o755); err != nil {
			return nil, err
		}
		plain := w
		plain.accel = false
		if _, err := runTool(filepath.Dir(refBundle), filepath.Join(cfg.bin, "medrelax"), bundleArgs(plain, refBundle)...); err != nil {
			return nil, err
		}
	}

	var (
		setups []float64
		peaks  []float64
		st     *stack
	)
	for i := 0; i < w.setups; i++ {
		start := time.Now()
		s, peak, err := setUp(cfg, filepath.Join(cfg.work, "setup"+strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		peaks = append(peaks, peak)
		if i < w.setups-1 {
			s.stop()
			if err := os.RemoveAll(filepath.Dir(s.bundle)); err != nil {
				return nil, err
			}
			continue
		}
		st = s
	}
	if refBundle == "" {
		refBundle = st.bundle
	}
	fi, err := os.Stat(st.bundle)
	if err != nil {
		return nil, err
	}

	client := newClient(conns())
	terms, err := fetchTerms(client, st.base)
	if err != nil {
		return nil, err
	}
	ref, err := engine.LoadSnapshot(refBundle)
	if err != nil {
		return nil, fmt.Errorf("loading reference bundle: %w", err)
	}
	defer ref.Close()
	ks, err := newKeySource(w, terms, findingContexts(ref), cfg.seed)
	if err != nil {
		return nil, err
	}
	win, err := runWindow(w, cfg.window, ks, newSender(w, ks, client, st.base, nil), cfg.seed, true, nil)
	if err != nil {
		return nil, err
	}

	rss := 0.0
	procInfo := map[string]any{}
	for _, p := range st.procs() {
		pid := strconv.Itoa(p.cmd.Process.Pid)
		peak := peakRSSMB(pid)
		rss += peak
		procInfo[p.name] = map[string]any{"pid": p.cmd.Process.Pid, "addr": p.addr, "cpus": placement(pid), "gomaxprocs": p.gomaxprocs, "vmhwm_mb": peak}
	}
	rep.details["serving_processes"] = procInfo
	st.stop()

	// Every answer of the window (warm-up included) is checked.
	timed := append([]phase{win.ref, win.reload}, win.ladder...)
	var all []*job
	for _, ph := range append(timed, win.warm...) {
		all = append(all, ph.sent(true)...)
	}
	chk, err := checkAnswers(ref, ks, all, w.checkMax, cfg.seed)
	if err != nil {
		return nil, err
	}

	refSent := append(win.ref.sent(false), win.reload.sent(false)...)
	wrongRef := 0
	for _, j := range refSent {
		if j.wrong {
			wrongRef++
		}
	}
	lat := win.ref.latencies()
	p50, p99, tail, blockP50, blockTail := blockQuantiles(lat)
	rep.set("p50_ms", p50, "ms")
	ladder := []map[string]any{}
	for _, ph := range win.ladder {
		l := sortedCopy(ph.latencies())
		ladder = append(ladder, map[string]any{
			"rate": ph.rate, "achieved": achieved(ph), "sent": len(ph.sent(false)), "p50_ms": quantile(l, 0.5),
			"p99_ms": quantile(l, tailQuantile(len(l))), "backlog": ph.backlog, "abandoned": ph.abandoned, "pass": passes(w, ph),
		})
	}

	errRate := float64(win.ref.failures()+win.reload.failures()+wrongRef) / float64(len(refSent))
	rep.set("setup_s", median(setups), "s")
	rep.set("bundle_mb", float64(fi.Size())/1e6, "MB")
	rep.set("server_rss_mb", rss, "MB")
	// On a shared 2-CPU host these three spread across runs by more than
	// any bound BENCHMARK.json may set (README.md, "Steadiness"), and
	// error_rate is 0 on working code, so no bound relative to its median
	// means anything; correct and failed carry it in the result.
	rep.setUngated("p99_ms", p99, "ms")
	rep.setUngated("max_rate_rps", win.maxRate, "1/s")
	rep.setUngated("error_rate", errRate, "ratio")

	attempted, failed := 0, 0
	for _, ph := range timed {
		for _, j := range ph.sent(false) {
			attempted++
			if j.failed || j.wrong {
				failed++
			}
		}
	}
	rep.Attempted, rep.Failed = attempted, failed
	rep.Correct = chk.wrong == 0
	late := sortedCopy(append(win.ref.lateness(), ladderLateness(win.ladder)...))
	rep.details["reference"] = map[string]any{
		"rate_rps": w.refRate, "seconds": win.ref.duration.Seconds(), "samples": len(lat),
		"block_p50_ms": blockP50, "block_tail_ms": blockTail, "tail_quantile": tail, "error_rate": errRate, "p99_limit_ms": w.p99LimitMs, "error_limit": errLimit,
		"late_p50_ms": quantile(late, 0.5), "late_p99_ms": quantile(late, 0.99),
	}
	rep.details["ladder"] = ladder
	if w.reloadEvery > 0 {
		l := sortedCopy(win.reload.latencies())
		var reloadMs []float64
		for _, j := range win.reload.sent(false) {
			if j.reload {
				reloadMs = append(reloadMs, ms(j.done-j.start))
			}
		}
		rep.details["reload_phase"] = map[string]any{
			"rate_rps": w.reloadRate, "seconds": win.reload.duration.Seconds(), "samples": len(l),
			"p50_ms": quantile(l, 0.5), "tail_ms": quantile(l, tailQuantile(len(l))), "tail_quantile": tailQuantile(len(l)),
			"reload_ms": reloadMs,
		}
	}
	rep.details["setup"] = map[string]any{"seconds": setups, "build_peak_rss_mb": peaks, "bundle_bytes": fi.Size()}
	rep.details["answer_check"] = map[string]any{
		"reference":     "engine.Snapshot.Relax on " + filepath.Base(refBundle) + " (plain bundle, live path)",
		"distinct_keys": chk.distinctKeys, "checked_keys": chk.checkedKeys, "sample_seed": cfg.seed,
		"answers_compared": chk.checked, "wrong_answers": chk.wrong,
	}
	return rep, nil
}

func ladderLateness(ps []phase) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.lateness()...)
	}
	return out
}
