// Command perfbench is the repository benchmark. One invocation runs one
// workload against the real binaries (medrelax builds the bundle, kbserver
// and kbrouter serve it) from a single open-loop generator, checks every
// answer, and prints its metrics by name with their units. The last line
// of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the
// same stack is assembled in-process from the packages' public
// constructors, each layer is timed from outside at its public boundary,
// and the metrics are the per-layer ones.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	w       spec
	seed    int64
	window  time.Duration // measured time
	bin     string        // directory holding medrelax, kbserver, kbrouter
	work    string        // scratch directory of this invocation
	records string        // where the JSON record is written
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one invocation prints and records.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order   []string       // metric print order
	details map[string]any // everything else recorded beside the metrics
	// ungated holds metrics printed and recorded beside the result's but
	// kept out of it: the result line carries exactly BENCHMARK.json's.
	ungated      map[string]metric
	ungatedOrder []string
}

func newReport() *report {
	return &report{Metrics: map[string]metric{}, details: map[string]any{}, ungated: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setUngated records a metric that BENCHMARK.json does not gate on.
func (r *report) setUngated(name string, v float64, unit string) {
	if _, ok := r.ungated[name]; !ok {
		r.ungatedOrder = append(r.ungatedOrder, name)
	}
	r.ungated[name] = metric{Value: v, Unit: unit}
	r.details["ungated"] = r.ungated
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: hot, sweep or routed")
		seed     = flag.Int64("seed", 1, "seed of keys, schedule and sampling")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics from the binaries; 1: per-layer metrics from the in-process traced run")
		bin      = flag.String("bin", "", "directory with the medrelax, kbserver and kbrouter binaries")
		work     = flag.String("work", ".bench_work", "scratch directory")
	)
	flag.Parse()
	w, ok := specs[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || *bin == "" {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR --workload hot|sweep|routed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{
		w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, bin: *bin,
		work:    filepath.Join(*work, fmt.Sprintf("%s-%d", w.name, os.Getpid())),
		records: filepath.Join(*work, "records"),
	}
	// A signal stops every child before exiting, so no server outlives
	// the benchmark.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.RemoveAll(cfg.work)
		os.Exit(1)
	}()

	// The generator keeps every job of the run in memory; collecting less
	// often keeps its own GC from delaying sends on the CPUs it shares
	// with the servers. The traced run keeps the default: its servers and
	// offline build run in this process and must behave as the binaries do.
	if *traced == 0 {
		debug.SetGCPercent(400)
	}
	rep, err := run(cfg, *traced == 1)
	stopAll()
	os.RemoveAll(cfg.work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.emit(os.Stdout, cfg, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig, traced bool) (*report, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	before, stealBefore := cpuTicks(), cpuStat()
	var (
		rep *report
		err error
	)
	if traced {
		rep, err = runTraced(cfg)
	} else {
		rep, err = runServed(cfg)
	}
	if err != nil {
		return nil, err
	}
	rep.details["provenance"] = provenance(before, stealBefore)
	return rep, nil
}

// children tracks every process started, for stopAll.
var children struct {
	sync.Mutex
	procs []*proc
}

func track(p *proc) {
	children.Lock()
	children.procs = append(children.procs, p)
	children.Unlock()
}

// stopAll stops every started process and waits for each to exit.
func stopAll() {
	children.Lock()
	procs := children.procs
	children.procs = nil
	children.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// provenance records what the numbers were measured on.
func provenance(before map[int]procTicks, stealBefore [2]uint64) map[string]any {
	ours := map[int]bool{os.Getpid(): true}
	children.Lock()
	for _, p := range children.procs {
		ours[p.cmd.Process.Pid] = true
	}
	children.Unlock()
	commit := "unavailable: not a git checkout"
	git := exec.Command("git", "rev-parse", "HEAD")
	// Only the checkout itself may name the commit, not a repository
	// that happens to enclose it.
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"steal_share":          stealShare(stealBefore, cpuStat()),
		"commit":               commit,
		"source_sha256":        sourceDigest("."),
		"go":                   runtime.Version(),
		"nproc":                runtime.NumCPU(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"generator_cpus":       placement("self"),
		"co_located":           coLocated(before, cpuTicks(), ours),
	}
}

// sourceDigest hashes every Go source and go.mod under root (build and
// work directories excluded) so a record names the exact code measured
// even where no git metadata exists.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// emit prints the metrics, the details and, last, the result line; it also
// writes the full record under cfg.records.
func (r *report) emit(out io.Writer, cfg runConfig, traced int) error {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(out, "metric %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range r.ungatedOrder {
		m := r.ungated[name]
		fmt.Fprintf(out, "metric %-34s %14.6g %s (not in BENCHMARK.json)\n", name, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(r.details))
	for k := range r.details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, err := json.Marshal(r.details[k])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: %s\n", k, b)
	}
	record := map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "seconds": cfg.window.Seconds(), "trace": traced,
		"result": r, "details": r.details,
	}
	if err := os.MkdirAll(cfg.records, 0o755); err == nil {
		if b, err := json.MarshalIndent(record, "", "  "); err == nil {
			name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.w.name, cfg.seed, traced)
			_ = os.WriteFile(filepath.Join(cfg.records, name), b, 0o644)
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
