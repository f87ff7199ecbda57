package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tbaa/internal/server"
)

// daemon is one tbaad child process built from the tree under test.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	client *http.Client
	done   chan error // receives cmd.Wait's result once
	logf   *os.File
}

// startDaemon launches bin on a kernel-assigned loopback port and
// returns once /readyz answers 200. extra is appended to the flags.
func startDaemon(bin, work string, extra ...string) (*daemon, error) {
	portFile, err := os.CreateTemp(work, "tbaad-*.addr")
	if err != nil {
		return nil, err
	}
	portPath := portFile.Name()
	portFile.Close()
	os.Remove(portPath) // tbaad writes it once listening
	defer os.Remove(portPath)
	logf, err := os.CreateTemp(work, "tbaad-*.log")
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-portfile", portPath, "-drain", "5s"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without stopping the daemon, the kernel does.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.Remove(logf.Name())
		return nil, fmt.Errorf("start tbaad: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1), logf: logf}
	go func() { d.done <- cmd.Wait() }()
	d.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(portPath); err == nil && len(bytes.TrimSpace(b)) > 0 {
			d.base = "http://" + strings.TrimSpace(string(b))
			if resp, err := d.client.Get(d.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, fmt.Errorf("tbaad exited before ready: %v (log: %s)", err, d.tail())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("tbaad not ready after 30s (log: %s)", d.tail())
		}
	}
}

// tail returns the end of the daemon's log, for error messages.
func (d *daemon) tail() string {
	b, _ := os.ReadFile(d.logf.Name())
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// vmHWM reads the daemon's peak resident set size in MB.
func (d *daemon) vmHWM() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// vmHWM reads /proc/<pid>/status's VmHWM in MB.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stop sends SIGTERM, waits for a clean exit (killing after 15s) and
// removes the log. It reports a non-zero exit.
func (d *daemon) stop() error {
	defer func() {
		d.logf.Close()
		os.Remove(d.logf.Name())
	}()
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already exited child is fine
	select {
	case err := <-d.done:
		d.done <- err
		return err
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill() // the wait below reports the outcome
		err := <-d.done
		d.done <- err
		return fmt.Errorf("tbaad ignored SIGTERM for 15s: %v", err)
	}
}

// post sends body to path and reads the whole response. The returned
// duration runs from sending the request to the last response byte.
func (d *daemon) post(ctx context.Context, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, time.Since(start), err
}

// upload installs a module and returns its hash.
func (d *daemon) upload(ctx context.Context, file, src string) (string, error) {
	body, _ := json.Marshal(server.UploadRequest{File: file, Source: src})
	code, b, _, err := d.post(ctx, "/v1/modules", body)
	if err != nil {
		return "", fmt.Errorf("upload: %w", err)
	}
	if code/100 != 2 {
		return "", fmt.Errorf("upload: HTTP %d: %s", code, clip(b))
	}
	var resp server.UploadResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return "", fmt.Errorf("upload response: %w", err)
	}
	return resp.Hash, nil
}

// scrapeMetrics reads /metrics into name{labels} → value.
func scrapeMetrics(get func(path string) (int, []byte, error)) (map[string]float64, error) {
	code, b, err := get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	return parseMetrics(b), nil
}

// parseMetrics reads Prometheus text lines "name{labels} value".
func parseMetrics(b []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// checkBatch decodes a batch response and compares it with the batch's
// expected verdicts (when it has them). It returns the generation.
func checkBatch(b []byte, bt *batch) (uint64, error) {
	var resp server.BatchResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		return 0, fmt.Errorf("batch response: %w", err)
	}
	if len(resp.Verdicts) != len(bt.pairs) {
		return resp.Generation, fmt.Errorf("batch: %d verdicts for %d pairs", len(resp.Verdicts), len(bt.pairs))
	}
	for i, v := range resp.Verdicts {
		if v.Error != "" {
			return resp.Generation, fmt.Errorf("batch pair %d: %s", i, v.Error)
		}
		if bt.want != nil && v.MayAlias != bt.want[i] {
			return resp.Generation, fmt.Errorf("batch pair %d (%s, %s) at %s: served %v, in-process %v",
				i, v.P, v.Q, levelNames[bt.level], v.MayAlias, bt.want[i])
		}
	}
	return resp.Generation, nil
}

func clip(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return strings.TrimSpace(string(b))
}

// statusErr describes a non-2xx answer.
func statusErr(code int, b []byte) error {
	return fmt.Errorf("HTTP %d: %s", code, clip(b))
}
