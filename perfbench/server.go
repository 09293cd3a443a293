package main

import (
	"bytes"
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

	"cinderella/internal/serve"
)

// daemon is one cinderelld child process on loopback and the single
// keep-alive connection the closed-loop client drives it through.
type daemon struct {
	cmd  *exec.Cmd
	base string
	hc   *http.Client
	logs bytes.Buffer
	done chan error
}

// startDaemon launches cinderelld on a free loopback port and waits until
// it answers /healthz. Every call through the daemon's client gives up
// after answerWithin.
func startDaemon(bin string, args []string, answerWithin time.Duration) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick a loopback port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	d := &daemon{
		base: "http://" + addr,
		hc: &http.Client{
			Timeout: answerWithin,
			Transport: &http.Transport{
				Proxy:               nil,
				MaxIdleConns:        1,
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		},
		done: make(chan error, 1),
	}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout = &d.logs
	d.cmd.Stderr = &d.logs
	// The daemon must not outlive the benchmark, whatever ends it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cinderelld: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case werr := <-d.done:
			d.done <- werr
			return nil, fmt.Errorf("cinderelld exited before serving (%v): %s", werr, d.logs.String())
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("cinderelld did not answer /healthz within 30s: %s", d.logs.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks cinderelld to shut down and waits for it to exit, killing it
// if the graceful shutdown stalls.
func (d *daemon) stop() error {
	d.hc.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("cinderelld ignored SIGTERM and was killed")
	}
}

// kill ends cinderelld at once: after a request got no answer, graceful
// shutdown would wait for the stuck handler.
func (d *daemon) kill() {
	d.hc.CloseIdleConnections()
	d.cmd.Process.Kill()
	d.done <- <-d.done
}

// post sends one JSON body and returns the status and the raw answer.
func (d *daemon) post(path string, body []byte) (int, []byte, error) {
	resp, err := d.hc.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

func (d *daemon) stats() (*serve.StatsResponse, error) {
	resp, err := d.hc.Get(d.base + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return &st, nil
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuTime reads the daemon's user+system CPU, summed over its threads.
func (d *daemon) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read cinderelld CPU time: %w", err)
	}
	// The command name may hold spaces; fields resume after its ")".
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("read cinderelld CPU time: malformed /proc stat %q", s)
	}
	f := strings.Fields(s[i+1:])
	// utime and stime are fields 14 and 15 of stat(5); f[0] is field 3.
	if len(f) < 13 {
		return 0, fmt.Errorf("read cinderelld CPU time: short /proc stat %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("read cinderelld CPU time: bad utime/stime in %q", s)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS reads the daemon's high-water resident set (VmHWM) in bytes.
func (d *daemon) peakRSS() (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("read cinderelld VmHWM: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil || kb <= 0 {
				return 0, fmt.Errorf("read cinderelld VmHWM: bad line %q", line)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("read cinderelld VmHWM: no VmHWM line in /proc status")
}
