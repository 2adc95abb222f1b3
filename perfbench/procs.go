package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running process of the system under test.
type proc struct {
	name string
	args []string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returns
	err  error
}

// live tracks every started process so that any exit path — a failed
// check, a signal, the watchdog — can stop them all and wait.
var live struct {
	sync.Mutex
	procs map[*proc]struct{}
}

// spawn starts bin/name with args, logging its output to logDir.
func spawn(bin, logDir, name string, args ...string) (*proc, error) {
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(logDir, name+"-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(bin, name), args...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, args: args, cmd: cmd, log: f, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*proc]struct{})
	}
	live.procs[p] = struct{}{}
	live.Unlock()
	return p, nil
}

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM (each server drains and persists on it), waits up
// to grace, then kills. It returns the process's peak RSS in MiB.
func (p *proc) stop(grace time.Duration) (rssMB float64, err error) {
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(grace):
			_ = p.cmd.Process.Kill()
			<-p.done
			err = fmt.Errorf("%s did not exit within %v of SIGTERM", p.name, grace)
		}
	}
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
	p.log.Close()
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err == nil && p.err != nil && !isSignalExit(p.err) {
		err = fmt.Errorf("%s exited: %v (log %s)", p.name, p.err, p.log.Name())
	}
	return rssMB, err
}

// isSignalExit reports whether err is the exit of a process ended by the
// SIGTERM stop sent.
func isSignalExit(err error) bool {
	ee, ok := err.(*exec.ExitError)
	if !ok {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}

// killAll stops every tracked process and waits for each.
func killAll() {
	live.Lock()
	ps := make([]*proc, 0, len(live.procs))
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.stop(5 * time.Second)
	}
}

// group is the set of processes one topology runs.
type group []*proc

// stop stops the processes in reverse start order and sums their peak
// RSS.
func (g group) stop() (rssMB float64, err error) {
	for i := len(g) - 1; i >= 0; i-- {
		r, e := g[i].stop(20 * time.Second)
		rssMB += r
		if err == nil {
			err = e
		}
	}
	return rssMB, err
}

// rss sums the processes' resident memory now (VmRSS), in MiB.
func (g group) rss() (float64, error) {
	var mb float64
	for _, p := range g {
		v, err := statusRSS(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		mb += v
	}
	return mb, nil
}

// statusRSS reads VmRSS from a /proc status file, in MiB.
func statusRSS(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(rest, "%g", &kb); err != nil {
				return 0, fmt.Errorf("%s: VmRSS %q: %w", path, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmRSS", path)
}

// freeAddr reserves a loopback port and releases it for a child to bind.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// waitReady polls probe until it succeeds, the process exits, or 60s pass.
func waitReady(p *proc, what string, probe func() error) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		err := probe()
		if err == nil {
			return nil
		}
		if p.exited() {
			return fmt.Errorf("%s exited before %s was ready (log %s)", p.name, what, p.log.Name())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %s not ready: %v", p.name, what, err)
		}
		time.Sleep(time.Millisecond) // a coarser poll would quantize set-up times of tens of ms
	}
}

func tcpUp(addr string) func() error {
	return func() error {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
		}
		return err
	}
}

var pollClient = &http.Client{Timeout: 30 * time.Second}

func httpUp(url string) func() error {
	return func() error {
		_, err := httpGet(pollClient, url)
		return err
	}
}

// httpGet fetches url and requires a 200.
func httpGet(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}

// scrape reads a /metrics JSON document.
func scrape(url string) (map[string]any, error) {
	body, err := httpGet(pollClient, url)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decode %s: %w", url, err)
	}
	return doc, nil
}

// num digs a number out of a decoded JSON document by key path; 0 when
// absent.
func num(doc map[string]any, path ...string) float64 {
	var cur any = doc
	for _, k := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[k]
	}
	f, _ := cur.(float64)
	return f
}
