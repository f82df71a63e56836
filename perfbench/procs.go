package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one serving process the benchmark started.
type proc struct {
	name       string
	addr       string
	gomaxprocs int
	cmd        *exec.Cmd
	exited     chan struct{} // closed once cmd.Wait has returned
}

// portBase is the first port of the serving processes' fixed addresses.
// kbrouter's consistent-hash ring places keys by replica address, so a
// random port per run would give each run its own split of the hot keys
// between the replicas, and with it its own critical path.
const portBase = 17800

// listen binds slot's fixed loopback address, or a free port when that
// one is taken; the record names the addresses used.
func listen(slot int) (net.Listener, error) {
	if l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(portBase+slot)); err == nil {
		return l, nil
	}
	return net.Listen("tcp", "127.0.0.1:0")
}

// reserveAddr finds slot's address by binding and releasing it.
func reserveAddr(slot int) (string, error) {
	l, err := listen(slot)
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startProc launches bin with args on slot's address (see listen),
// logging to dir/name.log. Each server
// gets GOMAXPROCS=nproc, its default, explicitly so the record states
// what it ran with.
func startProc(dir, bin, name string, slot int, args ...string) (*proc, error) {
	addr, err := reserveAddr(slot)
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	procs := runtime.NumCPU()
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	// The child holds its own descriptor; ours is not needed any more.
	logf.Close()
	p := &proc{name: name, addr: addr, gomaxprocs: procs, cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// waitHealthy polls GET /healthz until it answers 200, the process exits,
// or the deadline passes.
func (p *proc) waitHealthy(client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + p.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before answering /healthz", p.name)
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s did not answer /healthz within %s", p.name, timeout)
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited after a grace period. It always waits for exit.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// procStatus reads the named fields of /proc/<pid>/status ("self" for this
// process).
func procStatus(pid string, fields ...string) map[string]string {
	out := map[string]string{}
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		for _, want := range fields {
			if k == want {
				out[k] = strings.TrimSpace(v)
			}
		}
	}
	return out
}

// kbField parses a "1234 kB" status value into megabytes (1e6 bytes).
func kbField(v string) float64 {
	n, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
	if err != nil {
		return 0
	}
	return n * 1024 / 1e6
}

// peakRSSMB is the process's VmHWM in MB; 0 if it cannot be read.
func peakRSSMB(pid string) float64 { return kbField(procStatus(pid, "VmHWM")["VmHWM"]) }

// placement describes where a process may run: its allowed CPU list.
func placement(pid string) string { return procStatus(pid, "Cpus_allowed_list")["Cpus_allowed_list"] }

// cpuTicks reads utime+stime of every visible process, keyed by pid, with
// its command name.
func cpuTicks() map[int]procTicks {
	out := map[int]procTicks{}
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return out
	}
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue
		}
		s := string(b)
		// comm is parenthesised and may contain spaces; fields resume after
		// the last ')'.
		open, closeIdx := strings.IndexByte(s, '('), strings.LastIndexByte(s, ')')
		if open < 0 || closeIdx < open {
			continue
		}
		rest := strings.Fields(s[closeIdx+1:])
		if len(rest) < 13 {
			continue
		}
		ut, _ := strconv.ParseUint(rest[11], 10, 64)
		st, _ := strconv.ParseUint(rest[12], 10, 64)
		out[pid] = procTicks{comm: s[open+1 : closeIdx], ticks: ut + st}
	}
	return out
}

type procTicks struct {
	comm  string
	ticks uint64
}

// coLocated lists processes other than this one and its children that used
// CPU between two cpuTicks snapshots, busiest first.
func coLocated(before, after map[int]procTicks, ours map[int]bool) []string {
	type busy struct {
		desc  string
		ticks uint64
	}
	var list []busy
	for pid, a := range after {
		if ours[pid] {
			continue
		}
		d := a.ticks
		if b, ok := before[pid]; ok && b.comm == a.comm {
			d -= b.ticks
		}
		if d == 0 {
			continue
		}
		list = append(list, busy{fmt.Sprintf("%s[%d] %d ticks", a.comm, pid, d), d})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].ticks > list[j].ticks })
	out := make([]string, 0, len(list))
	for _, b := range list {
		out = append(out, b.desc)
	}
	return out
}

// runTool runs a one-shot command to completion and returns its peak RSS
// in MB, with stderr in the error on failure.
func runTool(dir, bin string, args ...string) (float64, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return 0, fmt.Errorf("%s: %w: %s", filepath.Base(bin), err, stderr.String())
		}
		return 0, err
	}
	peak := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peak = float64(ru.Maxrss) * 1024 / 1e6
	}
	return peak, nil
}

// cpuStat returns the machine-wide (steal, total) CPU ticks from
// /proc/stat; steal is time the hypervisor gave this machine's CPUs to
// other guests.
func cpuStat() [2]uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var total, steal uint64
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return [2]uint64{steal, total}
}

// stealShare is the share of CPU time stolen between two cpuStat readings.
func stealShare(before, after [2]uint64) float64 {
	if after[1] <= before[1] {
		return 0
	}
	return float64(after[0]-before[0]) / float64(after[1]-before[1])
}
