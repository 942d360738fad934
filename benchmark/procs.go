package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one bismarckd process (daemon or shard executor) the harness
// started on port 0.
type child struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once Wait returned
	// tail keeps the last lines the child printed, for error reports.
	mu   sync.Mutex
	tail []string
}

// procs owns every child and scratch path of a run, so one deferred call
// (and the signal handler) can stop and remove all of them on any exit
// path.
type procs struct {
	mu       sync.Mutex
	children []*child
	paths    []string
}

// childStartTimeout bounds the wait for a child's "... on <addr>" line.
const childStartTimeout = 30 * time.Second

// start launches bin with args and GOMAXPROCS=2, and waits for the stdout
// line holding marker, whose last field is the address it listens on.
func (p *procs) start(bin string, marker string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	// A harness that dies without running its defers (SIGKILL) must not
	// leave children behind for the next run to share the machine with.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	p.mu.Lock()
	p.children = append(p.children, c)
	p.mu.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		found := false
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			if c.tail = append(c.tail, line); len(c.tail) > 20 {
				c.tail = c.tail[1:]
			}
			c.mu.Unlock()
			if !found && strings.Contains(line, marker) {
				found = true
				addrCh <- listenAddr(line)
			}
		}
		if !found {
			close(addrCh)
		}
		_, _ = io.Copy(io.Discard, out) // a line past the scanner's cap: keep draining so the child never blocks
		_ = cmd.Wait()
		close(c.done)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			c.stop()
			return nil, fmt.Errorf("%s exited before listening: %s", filepath.Base(bin), c.lastLines())
		}
		c.addr = addr
		return c, nil
	case <-time.After(childStartTimeout):
		c.stop()
		return nil, fmt.Errorf("%s did not listen within %s: %s", filepath.Base(bin), childStartTimeout, c.lastLines())
	}
}

// listenAddr pulls host:port out of a start-up line such as
// `bismarckd: serving catalog "/x" on 127.0.0.1:41233` or
// `bismarckd: shard executor on 127.0.0.1:41234 (in-memory, ...)`.
func listenAddr(line string) string {
	_, rest, ok := strings.Cut(line, " on ")
	if !ok {
		return ""
	}
	for strings.Contains(rest, " on ") { // a catalog path may itself hold " on "
		_, rest, _ = strings.Cut(rest, " on ")
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}

func (c *child) lastLines() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, " / ")
}

// stop ends the child: SIGTERM, a bounded wait for the daemon's own
// drain-and-save, then SIGKILL. It returns once the process is reaped and
// is safe to call twice.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// peakRSSMB reads the child's high-water resident set (VmHWM) in MB.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}

// resetPeakRSS restarts the child's high-water mark at its current
// resident set (clear_refs code 5).
func (c *child) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", c.cmd.Process.Pid), []byte("5"), 0)
}

// cpuSeconds reads the child's user and system CPU time so far.
func (c *child) cpuSeconds() (user, sys float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, in clock ticks (100 per second on Linux).
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, 0, fmt.Errorf("unexpected /proc/%d/stat", c.cmd.Process.Pid)
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	s, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("unexpected /proc/%d/stat", c.cmd.Process.Pid)
	}
	return u / 100, s / 100, nil
}

// stealSeconds reads the time the hypervisor ran something else while a
// virtual CPU of this machine was runnable, summed over CPUs.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100
}

// track registers a scratch path for removal at cleanup.
func (p *procs) track(path string) {
	p.mu.Lock()
	p.paths = append(p.paths, path)
	p.mu.Unlock()
}

// cleanup stops every child and removes every scratch path.
func (p *procs) cleanup() {
	p.mu.Lock()
	children, paths := p.children, p.paths
	p.children, p.paths = nil, nil
	p.mu.Unlock()
	for _, c := range children {
		c.stop()
	}
	for _, path := range paths {
		_ = os.RemoveAll(path)
	}
}

// buildDaemon compiles cmd/bismarckd from the checkout at root into dir.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "bismarckd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bismarckd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building bismarckd: %v\n%s", err, out)
	}
	return bin, nil
}
