package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running qualityserve process.
type server struct {
	ctx   context.Context // the run's context; control requests use it
	cmd   *exec.Cmd
	addr  string
	ready time.Duration // exec until /healthz answered 200
	ctl   *http.Client
	done  chan struct{} // closed once the process has been waited for
	err   error         // Wait's result, valid after done
}

// children tracks every server process, so that every exit path of the
// benchmark — including a signal — stops and waits for all of them.
var children struct {
	mu   sync.Mutex
	list []*server
}

// stopAll stops every server still running.
func stopAll() {
	children.mu.Lock()
	all := append([]*server(nil), children.list...)
	children.mu.Unlock()
	for _, s := range all {
		s.stop()
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startServer execs qualityserve with its default flags on the fixture
// and waits until /healthz answers 200; the wait is the set-up time.
func startServer(ctx context.Context, bin, store, archive, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-store", store, "-archive", archive, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{
		ctx:  ctx,
		cmd:  cmd,
		addr: addr,
		ctl:  &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{DisableCompression: true}},
		done: make(chan struct{}),
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	children.mu.Lock()
	children.list = append(children.list, s)
	children.mu.Unlock()
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	poll := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		select {
		case <-s.done:
			return nil, fmt.Errorf("qualityserve exited during start-up (%v); log in %s", s.err, logPath)
		default:
		}
		if resp, err := get(ctx, poll, "http://"+addr+"/healthz"); err == nil {
			drain(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(t0)
				return s, nil
			}
		}
		if time.Since(t0) > 120*time.Second {
			s.stop()
			return nil, fmt.Errorf("qualityserve not healthy after %v; log in %s", time.Since(t0), logPath)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the process and waits until it has exited.
func (s *server) stop() {
	select {
	case <-s.done:
	default:
		s.cmd.Process.Kill()
		<-s.done
	}
	s.ctl.CloseIdleConnections()
	children.mu.Lock()
	for i, c := range children.list {
		if c == s {
			children.list = append(children.list[:i], children.list[i+1:]...)
			break
		}
	}
	children.mu.Unlock()
}

// getJSON fetches a control endpoint and decodes its JSON body.
func (s *server) getJSON(path string, v any) error {
	resp, err := get(s.ctx, s.ctl, "http://"+s.addr+path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// get issues a GET under ctx.
func get(ctx context.Context, c *http.Client, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.Do(req)
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Generation uint64 `json:"generation"`
	Documents  int    `json:"documents"`
	Terms      int    `json:"terms"`
	Searches   uint64 `json:"searches"`
	Admitted   uint64 `json:"admitted"`
	Shed       uint64 `json:"shed"`
	Hits       uint64 `json:"cache_hits"`
	Misses     uint64 `json:"cache_misses"`
	Coalesced  uint64 `json:"cache_coalesced"`
	Evictions  uint64 `json:"cache_evictions"`
}

func (s *server) stats() (serverStats, error) {
	var st serverStats
	err := s.getJSON("/stats", &st)
	return st, err
}

// refresh calls /refresh and returns the generation it reports and its
// wall time.
func (s *server) refresh() (uint64, time.Duration, error) {
	var r struct {
		Generation uint64 `json:"generation"`
	}
	t0 := time.Now()
	err := s.getJSON("/refresh", &r)
	return r.Generation, time.Since(t0), err
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux platform Go supports.
const clockTicks = 100

// cpu returns the process's user+system CPU time from /proc.
func (s *server) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// hwmMB returns the process's peak resident set (VmHWM) in MiB.
func (s *server) hwmMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}
