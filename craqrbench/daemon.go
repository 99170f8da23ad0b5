package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one craqrd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	args []string
	env  []string
	log  *os.File
	done chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches craqrd with GOMAXPROCS capped to procs.
func startDaemon(bin string, procs int, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-workers", strconv.Itoa(procs),
	}
	env := append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	d := &daemon{base: fmt.Sprintf("http://127.0.0.1:%d", port), args: args, env: env}
	return d, d.start(bin, logPath)
}

func (d *daemon) start(bin, logPath string) error {
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	d.log = f
	d.cmd = exec.Command(bin, d.args...)
	d.cmd.Env = d.env
	d.cmd.Stdout, d.cmd.Stderr = f, f
	// If the benchmark dies without reaching kill, the kernel ends craqrd.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		f.Close()
		return fmt.Errorf("start craqrd: %w", err)
	}
	d.done = make(chan error, 1)
	go func() { d.done <- d.cmd.Wait() }()
	return nil
}

// kill sends SIGKILL and waits for the process to exit.
func (d *daemon) kill() {
	if d.cmd == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // already exited is fine
	<-d.done
	d.log.Close()
	d.cmd = nil
}

// waitHealthy polls /v1/healthz until it answers 200 or the deadline
// passes.
func (d *daemon) waitHealthy(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("craqrd exited before becoming healthy: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("craqrd not healthy after %v: %v", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cpuTicks reads utime+stime (clock ticks) from /proc/<pid>/stat.
func (d *daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad cpu fields in /proc stat")
	}
	return ut + st, nil
}

// clockTick is USER_HZ, fixed at 100 on Linux for every architecture the
// benchmark runs on.
const clockTick = 10 * time.Millisecond

// peakRSSMB reads VmHWM from /proc/<pid>/status.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// --- control-plane calls ----------------------------------------------------

// sessionSpec is the create-session body the benchmark sends.
type sessionSpec struct {
	Name       string  `json:"name"`
	Seed       int64   `json:"seed"`
	Source     string  `json:"source"`
	Simulated  bool    `json:"simulated"`
	Tolerance  float64 `json:"tolerance,omitempty"`
	LatePolicy string  `json:"latePolicy"`
	Retention  int     `json:"retention,omitempty"`
}

// doJSON issues a request and decodes a JSON response into out (when
// non-nil), failing on any non-2xx status.
func doJSON(ctx context.Context, c *http.Client, method, url, ctype string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return nil
}

// createSession creates a session and submits the resident queries in
// order, returning their IDs.
func createSession(ctx context.Context, c *http.Client, base string, spec sessionSpec, queries []string) ([]string, error) {
	body, _ := json.Marshal(spec) // plain struct: cannot fail
	if err := doJSON(ctx, c, http.MethodPost, base+"/v1/sessions", "application/json", body, nil); err != nil {
		return nil, err
	}
	ids := make([]string, len(queries))
	for i, q := range queries {
		id, err := submitQuery(ctx, c, base, spec.Name, q)
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return ids, nil
}

func submitQuery(ctx context.Context, c *http.Client, base, session, q string) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	if err := doJSON(ctx, c, http.MethodPost, base+"/v1/sessions/"+session+"/queries", "text/plain", []byte(q), &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// sessionStatus is the subset of GET /v1/sessions/{s}/status the benchmark
// reads.
type sessionStatus struct {
	Epochs           int    `json:"epochs"`
	Ingested         uint64 `json:"ingested"`
	IngestDropped    uint64 `json:"ingestDropped"`
	LateDropped      uint64 `json:"lateDropped"`
	IngestRejected   uint64 `json:"ingestRejected"`
	IngestDuplicates uint64 `json:"ingestDuplicates"`
	IngestPending    int    `json:"ingestPending"`
}

func getStatus(ctx context.Context, c *http.Client, base, session string) (sessionStatus, error) {
	var st sessionStatus
	err := doJSON(ctx, c, http.MethodGet, base+"/v1/sessions/"+session+"/status", "", nil, &st)
	return st, err
}
