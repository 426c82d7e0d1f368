package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the repository root: the
// directory holding cmd/farmerd and this module's parent go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "go.mod")) && fileExists(filepath.Join(dir, "cmd", "farmerd", "main.go")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (a directory with go.mod and cmd/farmerd) above the working directory")
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// buildFarmerd compiles cmd/farmerd into dir and returns the binary path.
// -trimpath keeps the binary, and so its recorded sha256, independent of
// where the checkout lives.
func buildFarmerd(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "farmerd")
	cmd := exec.CommandContext(ctx, "go", "build", "-trimpath", "-o", bin, "./cmd/farmerd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/farmerd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running farmerd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
	log    *addrWriter
	err    error // exit status, valid once exited is closed
}

// addrWriter collects farmerd's stderr and reports the listen address the
// daemon logs once its socket is open.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.addr != nil {
		const marker = "listening on "
		s := w.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				w.addr <- strings.TrimSpace(s[i+len(marker) : i+j])
				w.addr = nil
			}
		}
	}
	return len(p), nil
}

func (w *addrWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon execs farmerd on an ephemeral loopback port, with default
// workers and cache, over the durable store in storeDir (RAM-only when it
// is empty), and returns once it reports its listen address.
func startDaemon(bin, storeDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if storeDir != "" {
		args = append(args, "-store", storeDir)
	}
	addr := make(chan string, 1)
	log := &addrWriter{addr: addr}
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{}), log: log}
	d.cmd.Stderr = log
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start farmerd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("farmerd exited before listening: %v\n%s", d.err, log)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("farmerd did not report a listen address\n%s", log)
	}
}

// stop sends SIGTERM, waits for the drain, and kills the daemon if it has
// not exited after 15 seconds. It returns once the process is gone.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// clockTicks is Linux's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat on every mainstream architecture.
const clockTicks = 100

// cpuSeconds returns the daemon's user plus system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc stat: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// peakRSSMB returns the daemon's resident-set high-water mark (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
