package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Server is a rampserve process started on loopback.
type Server struct {
	cmd  *exec.Cmd
	URL  string
	done chan error // receives cmd.Wait's result once
}

// StartServer launches `bin -quick -addr 127.0.0.1:0` and waits for its
// listening line. The access log goes to the null device.
func StartServer(bin string) (*Server, error) {
	cmd := exec.Command(bin, "-quick", "-addr", "127.0.0.1:0")
	// Should the benchmark die without stopping the server, the kernel
	// kills it, so no run leaves a process behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rampserve: %w", err)
	}
	s := &Server{cmd: cmd, done: make(chan error, 1)}
	lines := bufio.NewReader(out)
	addr := make(chan string, 1)
	go func() {
		line, _ := lines.ReadString('\n')
		addr <- line
		_, _ = io.Copy(io.Discard, lines) // drain until the process exits
		s.done <- cmd.Wait()
	}()
	select {
	case line := <-addr:
		const prefix = "rampserve: listening on "
		f := strings.Fields(strings.TrimPrefix(line, prefix))
		if !strings.HasPrefix(line, prefix) || len(f) == 0 {
			s.Stop()
			return nil, fmt.Errorf("rampserve: unexpected first line %q", line)
		}
		s.URL = "http://" + f[0]
	case <-time.After(30 * time.Second):
		s.Stop()
		return nil, fmt.Errorf("rampserve: no listening line within 30s")
	}
	return s, nil
}

// PeakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (s *Server) PeakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// CPUSeconds reads the process's user plus system CPU time, all threads.
func (s *Server) CPUSeconds() (float64, error) {
	return cpuSeconds(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
}

// cpuSeconds parses utime and stime from a /proc stat file.
func cpuSeconds(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15, in clock ticks.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("%s: malformed", path)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is the kernel's USER_HZ, the unit of /proc CPU times; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// Stop asks the server to drain and waits for it to exit, killing it if
// it has not exited within ten seconds.
func (s *Server) Stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMB parses VmHWM from a /proc status file.
func peakRSSMB(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// Client is the load client: at most Conns connections to one server,
// every dial counted.
type Client struct {
	HTTP  *http.Client
	URL   string
	Dials atomic.Int64
}

// NewClient builds a client that never opens more than conns
// connections.
func NewClient(url string, conns int) *Client {
	c := &Client{URL: url}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	c.HTTP = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.Dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
		},
	}
	return c
}

// Close releases idle connections.
func (c *Client) Close() { c.HTTP.CloseIdleConnections() }

// Evaluate posts one /v1/evaluate body and returns the response body of
// a 200, or an error naming the status.
func (c *Client) Evaluate(ctx context.Context, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL+"/v1/evaluate", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// Metrics is the slice of rampserve's /metrics document the benchmark
// reads.
type Metrics struct {
	Responses map[string]int64 `json:"responses_total"`
	Shed      int64            `json:"shed_total"`
	Cache     struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Entries int   `json:"entries"`
	} `json:"cache"`
	LatencyUS map[string]struct {
		Count   int64            `json:"count"`
		Buckets map[string]int64 `json:"buckets_le_us"`
	} `json:"latency_us"`
}

// FetchMetrics reads /metrics over a fresh connection, so the load
// client's connection count stays its own.
func FetchMetrics(url string) (Metrics, error) {
	var m Metrics
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// BucketQuantile returns the upper bound (µs) of the log2 bucket that
// holds the q-quantile of the samples histogram `name` gained between
// before and after. It is a bucket bound, not an exact quantile; the
// server exposes nothing finer.
func BucketQuantile(before, after Metrics, name string, q float64) float64 {
	b, a := before.LatencyUS[name], after.LatencyUS[name]
	n := a.Count - b.Count
	if n <= 0 {
		return 0
	}
	les := make([]float64, 0, len(a.Buckets))
	for k := range a.Buckets {
		les = append(les, bucketLE(k))
	}
	sort.Float64s(les)
	for _, le := range les {
		if float64(cumAt(a.Buckets, le)-cumAt(b.Buckets, le)) >= q*float64(n) {
			return le
		}
	}
	return les[len(les)-1]
}

// bucketLE parses a bucket key; "+inf" sorts last.
func bucketLE(k string) float64 {
	le, err := strconv.ParseFloat(k, 64)
	if err != nil {
		return math.Inf(1)
	}
	return le
}

// cumAt is the cumulative count at upper bound le. The server omits
// leading empty buckets, so a missing key takes the count of the
// largest bucket below it.
func cumAt(buckets map[string]int64, le float64) int64 {
	var c int64
	for k, v := range buckets {
		if bucketLE(k) <= le && v > c {
			c = v
		}
	}
	return c
}
