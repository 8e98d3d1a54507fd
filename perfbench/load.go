package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one karma-serve process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
}

// startDaemon execs karma-serve with default flags on a free loopback
// port and waits until /healthz answers.
func startDaemon(bin string, conns int) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the harness
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("karma-serve did not answer /healthz within 30s: %v", err)
		}
	}
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

// do sends one request and returns status and body; a transport error
// is returned as err.
func (d *daemon) do(r Request) (int, []byte, error) {
	resp, err := d.client.Post(d.base+r.Endpoint, "application/json", bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// sample is one answered request.
type sample struct {
	idx      int
	endpoint string
	lat      time.Duration
	code     int
	bytes    int
	digest   uint64
	out      outcome
	err      string // empty when the answer passed every check
}

// checked memoizes checkAnswer by (request, body) digest. The check is a
// pure function of both, and a repeated request answered from the
// response cache returns identical bytes, so each distinct answer is
// decoded once and the client's CPU stays off the daemon's.
var checked sync.Map // [2]uint64 -> checkResult

type checkResult struct {
	out outcome
	err string
}

func digest(parts ...[]byte) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum64()
}

// judge classifies one answer: transport errors, non-2xx statuses
// (504 included), undecodable bodies and broken invariants all fail.
func judge(r Request, idx int, code int, body []byte, err error) sample {
	s := sample{idx: idx, endpoint: r.Endpoint, code: code, bytes: len(body), digest: digest(body)}
	switch {
	case err != nil:
		s.err = "transport: " + err.Error()
	case code < 200 || code > 299:
		s.err = fmt.Sprintf("status %d: %s", code, bytes.TrimSpace(body))
	default:
		key := [2]uint64{digest([]byte(r.Endpoint), r.Body), s.digest}
		res, ok := checked.Load(key)
		if !ok {
			out, cerr := checkAnswer(r, body)
			c := checkResult{out: out}
			if cerr != nil {
				c.err = cerr.Error()
			}
			res, _ = checked.LoadOrStore(key, c)
		}
		s.out, s.err = res.(checkResult).out, res.(checkResult).err
	}
	return s
}

// drive runs a closed loop of `clients` callers over stream indices
// [from, to) — or, when to < 0, until `dur` has passed — and returns
// the samples in request-index order with the phase's wall time.
func drive(d *daemon, s *Stream, clients, from, to int, dur time.Duration) ([]sample, time.Duration) {
	var next atomic.Int64
	next.Store(int64(from))
	var mu sync.Mutex
	var out []sample
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				if to < 0 && time.Since(start) >= dur {
					break
				}
				i := int(next.Add(1) - 1)
				if to >= 0 && i >= to {
					break
				}
				r := s.At(i)
				t0 := time.Now()
				code, body, err := d.do(r)
				lat := time.Since(t0)
				smp := judge(r, i, code, body, err)
				smp.lat = lat
				mine = append(mine, smp)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out, wall
}

// promStats is a /stats scrape: series (name plus labels) to value.
type promStats map[string]float64

func (d *daemon) scrape() (promStats, error) {
	resp, err := d.client.Get(d.base + "/stats")
	if err != nil {
		return nil, fmt.Errorf("scraping /stats: %w", err)
	}
	defer resp.Body.Close()
	st := promStats{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/stats line %q: %v", line, err)
		}
		st[line[:i]] = v
	}
	return st, sc.Err()
}

// procCPU returns the process's user+system CPU seconds from
// /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat: %v %v", pid, err1, err2)
	}
	return (ut + st) / clockTicks, nil
}

// hostSteal returns the machine's cumulative steal and total CPU ticks
// from /proc/stat: time the hypervisor ran something else while this
// machine's CPUs had work.
func hostSteal() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %v", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// clockTicks is USER_HZ, 100 on every Linux architecture Go supports.
const clockTicks = 100

// vmHWM returns the process's peak resident set in MiB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
