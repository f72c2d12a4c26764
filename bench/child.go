package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot finds the semblock module root (the directory whose go.mod
// declares `module semblock`) above the working directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(raw), []byte("module semblock\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no semblock module root above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/semblock from the checkout's source into bin and
// returns how long that took. The go tool skips the link when the binary is
// already up to date.
func buildServer(ctx context.Context, root, bin string) (time.Duration, error) {
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/semblock")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/semblock: %w\n%s", err, out)
	}
	return time.Since(t0), nil
}

// child is one `semblock serve` process.
type child struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	stderr  bytes.Buffer
	waited  chan struct{}
	waitErr error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startChild execs the server on a free loopback port against dataDir. It
// returns as soon as the process is started; use waitReady or the
// workload's own readiness condition before sending traffic.
func startChild(bin, dataDir string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := &child{addr: addr, waited: make(chan struct{})}
	c.cmd = exec.Command(bin, "serve", "-addr", addr, "-data-dir", dataDir,
		"-checkpoint", "0", "-log-level", "error")
	c.cmd.Stderr = &c.stderr
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		c.waitErr = c.cmd.Wait()
		close(c.waited)
	}()
	return c, nil
}

// exited reports whether the process has ended.
func (c *child) exited() bool {
	select {
	case <-c.waited:
		return true
	default:
		return false
	}
}

// vmHWM is the process's peak resident set in MB (/proc/<pid>/status).
func (c *child) vmHWM() (float64, error) { return vmHWM(c.cmd.Process.Pid) }

func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stop ends the process gracefully (SIGTERM: the server stops delivery,
// drains HTTP and writes its final checkpoint) and waits for it; a process
// that has not left after the grace period is killed. It returns the CPU
// seconds the process consumed.
func (c *child) stop(grace time.Duration) (cpu float64, err error) {
	if !c.exited() {
		if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			return 0, err
		}
		select {
		case <-c.waited:
		case <-time.After(grace):
			c.cmd.Process.Kill()
			<-c.waited
			return 0, fmt.Errorf("server did not exit within %v of SIGTERM; killed\n%s", grace, c.stderr.String())
		}
	}
	st := c.cmd.ProcessState
	cpu = st.UserTime().Seconds() + st.SystemTime().Seconds()
	if c.waitErr != nil {
		return cpu, fmt.Errorf("server exited: %w\n%s", c.waitErr, c.stderr.String())
	}
	return cpu, nil
}

// kill ends the process at once and waits for it; for throwaway servers of
// repeated set-ups and for error paths.
func (c *child) kill() {
	if !c.exited() {
		c.cmd.Process.Kill()
	}
	<-c.waited
}

// selfCPU is the CPU seconds this process has consumed so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
