package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mse/internal/core"
	"mse/internal/editdist"
	"mse/internal/eval"
	"mse/internal/serve"
)

// server is one running mse-serve process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startServer launches mse-serve over the wrapper directory on a free
// loopback port and waits until it answers /healthz.
func startServer(ctx context.Context, bin, wrappers, logPath string, cacheBytes int64) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-wrappers", wrappers, "-quiet",
		"-cache-bytes", strconv.FormatInt(cacheBytes, 10), "-relearn")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting mse-serve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("mse-serve exited during start-up: %v (log: %s)", err, logPath)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("mse-serve did not become healthy within 20s")
		}
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop shuts the server down (SIGTERM, then SIGKILL after a grace period)
// and waits until the process has exited.  Safe to call more than once.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	select {
	case err := <-s.done:
		s.done <- err
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an exited process is caught below
	select {
	case err := <-s.done:
		s.done <- err
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		s.done <- <-s.done
	}
}

// peakRSSMB reads the server's peak resident set size (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat on Linux.
const userHZ = 100

// cpuTime is the CPU time the server has used so far, user and system.
// The kernel derives it from the scheduler's run time, which leaves out
// the time the host hypervisor ran something else on the vCPU (steal).
func (s *server) cpuTime() (time.Duration, error) {
	return procCPUTime(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
}

func procCPUTime(path string) (time.Duration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// Fields 14 and 15 (utime, stime); the command name before them is in
	// parentheses and may hold spaces.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("%s: unexpected format", path)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: unexpected format", path)
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", path, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// hostCPU reads the host-wide CPU time from /proc/stat, in ticks: the
// total over every state and the part stolen by the hypervisor.
func hostCPU() (total, steal int64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("/proc/stat: unexpected format")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal, nil
}

func (s *server) getJSON(path string, v any) error {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.Unmarshal(body, v)
}

// setupServer is the serving set-up an operator pays: induce every
// engine's wrapper from its training pages through core.BuildWrapperCtx,
// write the wrapper files, start mse-serve over them and wait until it is
// healthy.  The tree-distance cache is cleared first so a repeated set-up
// does not reuse the previous one's distances.
func setupServer(ctx context.Context, tb *testbed, bin, dir string, cacheBytes int64) (*server, [][]byte, time.Duration, error) {
	editdist.ResetCache()
	wdir := filepath.Join(dir, "wrappers")
	if err := os.RemoveAll(wdir); err != nil {
		return nil, nil, 0, err
	}
	if err := os.MkdirAll(wdir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	wrappers := make([][]byte, len(tb.engines))
	for i, samples := range tb.samples {
		ew, err := core.BuildWrapperCtx(ctx, samples, core.DefaultOptions())
		if err != nil {
			return nil, nil, 0, fmt.Errorf("training %s: %w", tb.names[i], err)
		}
		data, err := json.Marshal(ew)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("encoding wrapper %s: %w", tb.names[i], err)
		}
		if err := os.WriteFile(filepath.Join(wdir, tb.names[i]+".json"), data, 0o644); err != nil {
			return nil, nil, 0, err
		}
		wrappers[i] = data
	}
	srv, err := startServer(ctx, bin, wdir, filepath.Join(dir, "mse-serve.log"), cacheBytes)
	if err != nil {
		return nil, nil, 0, err
	}
	return srv, wrappers, time.Since(start), nil
}

// computeOracle extracts every page in-process through a cache-less
// serve.Registry — the same fill path /extract serves — and scores the
// reference bodies against the pages' ground truth.
func computeOracle(ctx context.Context, tb *testbed, wrappers [][]byte, pages []*page) error {
	reg := serve.NewRegistry(core.DefaultOptions())
	for i, data := range wrappers {
		if err := reg.Add(tb.names[i], data); err != nil {
			return err
		}
	}
	errs := make([]error, len(pages))
	parallel(len(pages), func(i int) {
		p := pages[i]
		body, _, err := reg.ExtractCached(ctx, tb.names[p.engine], p.html, p.terms)
		if err != nil {
			errs[i] = fmt.Errorf("reference extraction of %s page %d: %w", tb.names[p.engine], p.query, err)
			return
		}
		p.ref, p.refTrim = sha256.Sum256(body), sha256.Sum256(bytes.TrimSuffix(body, []byte("\n")))
		p.refCorrect, errs[i] = scoreBody(tb, p, body)
	})
	return errors.Join(errs...)
}

// scoreBody counts the records an /extract body gets exactly right,
// judged against the page's regenerated ground truth.
func scoreBody(tb *testbed, p *page, body []byte) (int, error) {
	var eb struct {
		Sections []struct {
			Heading string `json:"heading"`
			Records []struct {
				Lines []string `json:"lines"`
				Links []string `json:"links"`
			} `json:"records"`
		} `json:"sections"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		return 0, fmt.Errorf("decoding extract body: %w", err)
	}
	secs := make([]*core.Section, 0, len(eb.Sections))
	for _, s := range eb.Sections {
		cs := &core.Section{Heading: s.Heading}
		for _, r := range s.Records {
			cs.Records = append(cs.Records, core.Record{Lines: r.Lines, Links: r.Links})
		}
		secs = append(secs, cs)
	}
	truth := tb.engines[p.engine].Page(p.query).Truth
	return eval.ScorePage(truth, secs).RecCorrect, nil
}

// client is one load-generator connection: its own transport holding a
// single keep-alive connection, and a reused read buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// post sends one request and returns the status and the body, which stays
// valid until the next call.
func (c *client) post(url, body string) (int, []byte, error) {
	resp, err := c.hc.Post(url, "application/octet-stream", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// serverReport is what the validity guards read from /metrics, /driftz and
// /relearnz after the load phases.
type serverReport struct {
	metrics struct {
		Metrics struct {
			Counters   map[string]int64 `json:"counters"`
			Histograms map[string]struct {
				Count int64   `json:"count"`
				P99Ms float64 `json:"p99_ms"`
			} `json:"histograms"`
		} `json:"metrics"`
		Pools struct {
			ParseArena struct {
				Acquires uint64 `json:"acquires"`
				Reuses   uint64 `json:"reuses"`
			} `json:"parse_arena"`
		} `json:"pools"`
		Excache struct {
			HitRate   float64 `json:"hit_rate"`
			Hits      uint64  `json:"hits_total"`
			Misses    uint64  `json:"misses_total"`
			Collapsed uint64  `json:"collapsed_total"`
			Evictions uint64  `json:"evictions_total"`
		} `json:"excache"`
	}
	drift struct {
		Engines []struct {
			Engine  string `json:"engine"`
			Verdict string `json:"verdict"`
		} `json:"engines"`
	}
	relearn struct {
		Enabled bool `json:"enabled"`
		Engines []struct {
			Attempts int64 `json:"attempts"`
		} `json:"engines"`
	}
	relearnJobs int64
}

func (s *server) report() (*serverReport, error) {
	r := &serverReport{}
	if err := s.getJSON("/metrics", &r.metrics); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	if err := s.getJSON("/driftz", &r.drift); err != nil {
		return nil, fmt.Errorf("reading /driftz: %w", err)
	}
	if err := s.getJSON("/relearnz", &r.relearn); err != nil {
		return nil, fmt.Errorf("reading /relearnz: %w", err)
	}
	for _, e := range r.relearn.Engines {
		r.relearnJobs += e.Attempts
	}
	return r, nil
}

// guards lists every validity guard the report trips: a shed request, a
// DRIFTED engine, a relearn job, or a cache hit ratio outside the
// workload's band.  A DRIFTED verdict schedules a relearn, which would take
// CPU from the measured serving; a SUSPECT verdict changes nothing the run
// measures, so suspects are returned apart, to be reported.
func (r *serverReport) guards(band [2]float64, engines int) (tripped, suspects []string) {
	var out []string
	if n := r.metrics.Metrics.Counters["http.shed_total"]; n != 0 {
		out = append(out, fmt.Sprintf("%d requests shed", n))
	}
	var drifted []string
	for _, e := range r.drift.Engines {
		switch e.Verdict {
		case "OK":
		case "SUSPECT":
			suspects = append(suspects, e.Engine)
		default:
			drifted = append(drifted, e.Engine+"="+e.Verdict)
		}
	}
	if len(drifted) > 0 {
		out = append(out, fmt.Sprintf("drift verdicts beyond SUSPECT: %s", strings.Join(drifted, " ")))
	}
	if len(r.drift.Engines) != engines {
		out = append(out, fmt.Sprintf("/driftz tracks %d engines, want %d", len(r.drift.Engines), engines))
	}
	if !r.relearn.Enabled {
		out = append(out, "relearn is not enabled on the server")
	}
	if r.relearnJobs != 0 {
		out = append(out, fmt.Sprintf("%d relearn jobs", r.relearnJobs))
	}
	if h := r.metrics.Excache.HitRate; h < band[0] || h > band[1] {
		out = append(out, fmt.Sprintf("excache hit ratio %.4f outside [%g, %g]", h, band[0], band[1]))
	}
	return out, suspects
}
