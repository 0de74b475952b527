package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Sentinel errors of the benchmark; failures wrap one with %w.
var (
	errUnknownWorkload = errors.New("unknown workload")
	errNoAddress       = errors.New("server printed no listen address")
	errNotReady        = errors.New("server never became ready")
	errBadStatus       = errors.New("unexpected HTTP status")
	errNoVmHWM         = errors.New("no VmHWM line in /proc status")
)

// child is one `soferr serve` process listening on a free loopback port.
type child struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	start time.Time
	// readyAt is when /readyz first answered 200.
	readyAt time.Time
	done    chan struct{}
}

// serverEnv is the benchmark's environment minus the Go runtime knobs,
// so the server runs with its defaults whatever the caller exported.
func serverEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOGC", "GOMEMLIMIT", "GOMAXPROCS":
			continue
		}
		env = append(env, kv)
	}
	return env
}

// startChild runs `soferr serve -addr 127.0.0.1:0` and waits until
// /readyz answers 200. The child dies with the benchmark (Pdeathsig)
// even if the benchmark is killed.
func startChild(ctx context.Context, bin string) (*child, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	cmd.Env = serverEnv()
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("server stdout: %w", err)
	}
	c := &child{cmd: cmd, start: time.Now(), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		// Relay the child's stdout until it exits; the first line names
		// the listen address.
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http://"); !sent && i >= 0 {
				addr <- strings.TrimSpace(line[i:])
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
		_ = cmd.Wait() // the exit status of a server we stop ourselves is not news
		close(c.done)
	}()
	select {
	case base, ok := <-addr:
		if !ok {
			c.stop()
			return nil, errNoAddress
		}
		c.base = base
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, errNoAddress
	case <-ctx.Done():
		c.stop()
		return nil, ctx.Err()
	}
	if err := c.waitReady(ctx); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// waitReady polls /readyz until it answers 200.
func (c *child) waitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(c.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.readyAt = time.Now()
				hc.CloseIdleConnections()
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return errNotReady
}

// stop terminates the server and waits for it to exit, escalating to
// SIGKILL after a grace period.
func (c *child) stop() {
	if c.cmd.Process == nil {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MiB.
func (c *child) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read server status: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errNoVmHWM
}

// cpuSeconds reads the server's user+system CPU time from
// /proc/<pid>/stat.
func (c *child) cpuSeconds() (float64, error) {
	return procCPUSeconds(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
}
