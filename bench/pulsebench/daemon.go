package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Daemon lifecycle for the socket workloads: the bench measures the pulsed
// binary an operator would run, so it builds ./cmd/pulsed from the checkout,
// spawns it on a free loopback port, waits for /healthz, and on the way out
// SIGTERMs it, checks the exit code, and scans stderr for the two lines that
// mean the daemon misbehaved under load (a panic, or the minute ticker
// giving up). Every spawned daemon is tracked so a failing bench kills its
// children instead of leaving one to skew the next run.

const (
	readyTimeout = 20 * time.Second
	stopTimeout  = 10 * time.Second
	// compress 600 → one simulated minute per 100 ms of wall time.
	daemonCompress = "600"
	tickEvery      = 100 * time.Millisecond
)

// buildDir is where compiled binaries go: .bench_build under the checkout
// root, the one directory the driver's checkout reserves for build output.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildPulsed compiles ./cmd/pulsed from the checkout root and returns the
// binary's path and the build's wall time (a no-op rebuild is ~0.3 s; the
// time is reported as build_s, informational).
func buildPulsed(root string) (string, float64, error) {
	if _, err := exec.LookPath("go"); err != nil {
		return "", 0, fmt.Errorf("go tool not found: %w", err)
	}
	out := filepath.Join(buildDir(root), "pulsed")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", out, "./cmd/pulsed")
	cmd.Dir = root
	if b, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/pulsed: %v\n%s", err, b)
	}
	return out, time.Since(t0).Seconds(), nil
}

// daemon is one running pulsed.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *syncBuffer
	done   chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after done
}

// live tracks every daemon not yet stopped, for killAll.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

// killAll SIGKILLs every daemon still running and waits for each: the
// guaranteed-cleanup path for bench failures and signals.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		_ = d.cmd.Process.Kill()
		<-d.done
		untrack(d)
	}
}

func untrack(d *daemon) {
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it, so a collision is possible in
// principle; spawn treats "address already in use" like any other failed
// start and the caller retries.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts pulsed with the workload's flags and returns once /healthz
// answers 200.
func spawn(bin string, flags []string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := spawnOnce(bin, flags)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func spawnOnce(bin string, flags []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-compress", daemonCompress}, flags...)
	d := &daemon{cmd: exec.Command(bin, args...), addr: addr, stderr: &syncBuffer{}, done: make(chan struct{})}
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	live.Lock()
	if live.set == nil {
		live.set = make(map[*daemon]bool)
	}
	live.set[d] = true
	live.Unlock()
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()

	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			untrack(d)
			return nil, fmt.Errorf("pulsed exited during start-up: %v\n%s", d.err, d.stderr.String())
		default:
		}
		if c, err := dialConn(addr); err == nil {
			status, _, err := c.do("GET", "/healthz", nil)
			c.close()
			if err == nil && status == 200 {
				return d, nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	_ = d.cmd.Process.Kill()
	<-d.done
	untrack(d)
	return nil, fmt.Errorf("pulsed not ready on %s after %v\n%s", addr, readyTimeout, d.stderr.String())
}

// stop SIGTERMs the daemon and requires a clean shutdown: exit code 0 and no
// panic / "ticker:" line on stderr. It escalates to SIGKILL after
// stopTimeout so a wedged daemon cannot outlive the bench.
func (d *daemon) stop() error {
	defer untrack(d)
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(stopTimeout):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("pulsed ignored SIGTERM for %v; killed", stopTimeout)
	}
	if d.err != nil {
		return fmt.Errorf("pulsed exit: %v\n%s", d.err, tail(d.stderr.String(), 20))
	}
	return scanStderr(d.stderr.String())
}

// scanStderr fails on the daemon log lines that mean it broke while serving.
func scanStderr(log string) error {
	for _, line := range strings.Split(log, "\n") {
		if strings.Contains(line, "panic") || strings.Contains(line, "ticker:") {
			return fmt.Errorf("pulsed stderr: %s", line)
		}
	}
	return nil
}

func tail(s string, lines int) string {
	parts := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(parts) > lines {
		parts = parts[len(parts)-lines:]
	}
	return strings.Join(parts, "\n")
}

// procUsage is a /proc snapshot of one process: CPU consumed so far, resident
// memory now, and the most it has ever been.
type procUsage struct {
	cpuSec    float64
	rssMB     float64
	peakRSSMB float64
}

// readProc reads utime+stime from /proc/<pid>/stat, and VmRSS and VmHWM from
// /proc/<pid>/status. pid 0 means this process.
func readProc(pid int) (procUsage, error) {
	dir := "/proc/self"
	if pid != 0 {
		dir = "/proc/" + strconv.Itoa(pid)
	}
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return procUsage{}, err
	}
	// The command name (field 2) is parenthesised and may contain spaces;
	// the numeric fields start after the last ')'.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return procUsage{}, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(string(stat[i+1:]))
	if len(fields) < 13 {
		return procUsage{}, errors.New("short /proc stat")
	}
	// fields[0] is field 3 (state), so utime (14) and stime (15) are
	// fields[11] and fields[12], in clock ticks of 1/100 s.
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return procUsage{}, errors.New("malformed /proc stat times")
	}
	u := procUsage{cpuSec: (utime + stime) / 100}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return procUsage{}, err
	}
	kb := func(field string) (float64, error) {
		_, rest, ok := strings.Cut(string(status), "\n"+field+":")
		if !ok {
			return 0, fmt.Errorf("no %s in /proc status", field)
		}
		line, _, _ := strings.Cut(rest, "\n")
		v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(line), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s %q", field, line)
		}
		return v / 1024, nil
	}
	if u.rssMB, err = kb("VmRSS"); err != nil {
		return procUsage{}, err
	}
	if u.peakRSSMB, err = kb("VmHWM"); err != nil {
		return procUsage{}, err
	}
	return u, nil
}

// syncBuffer is a bytes.Buffer safe to write from exec's copier goroutine
// while the bench reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
