package main

import (
	"bufio"
	"bytes"
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
	"sync"
	"syscall"
	"time"
)

// env owns everything a run leaves behind — the run directory under
// benchmark/out and the server subprocesses — so one close on every exit
// path (normal return, error, SIGINT/SIGTERM) removes all of it.
type env struct {
	root   string // repository root: the directory holding go.mod
	outDir string // <root>/benchmark/out, kept: trace files live here
	runDir string // <outDir>/run-<pid>, removed on close

	mu     sync.Mutex
	procs  map[*serverProc]struct{}
	closed bool
}

func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "benchmark", "out"), procs: map[*serverProc]struct{}{}}
	e.runDir = filepath.Join(e.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(data, []byte("module hique\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: not inside the hique module (no go.mod declaring module hique above the working directory)")
		}
		dir = parent
	}
}

// close kills every live server and removes the run directory. Safe to
// call more than once and from the signal handler.
func (e *env) close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	procs := make([]*serverProc, 0, len(e.procs))
	for p := range e.procs {
		procs = append(procs, p)
	}
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	_ = os.RemoveAll(e.runDir)
}

// tempDir makes a fresh directory inside the run directory.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.runDir, prefix)
}

// buildServer compiles ./cmd/hique-server into the run directory, so the
// shipped main.go wiring is what the HTTP workloads measure.
func (e *env) buildServer() (string, error) {
	bin := filepath.Join(e.runDir, "hique-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hique-server")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("benchmark: building hique-server: %v\n%s", err, out)
	}
	return bin, nil
}

// serverProc is one hique-server subprocess on a loopback port.
type serverProc struct {
	env     *env
	cmd     *exec.Cmd
	addr    string // http://127.0.0.1:<port>
	logPath string
	exited  chan struct{} // closed once Wait has returned
}

// startServer launches bin on a free loopback port with the given extra
// flags and waits until GET /healthz answers 200. A server that fails
// its health check is killed before the error returns.
func (e *env) startServer(bin string, args ...string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(e.runDir, "server-*.log")
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	hostPort := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", hostPort}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = childProcAttr()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, errors.New("benchmark: shutting down")
	}
	if err := cmd.Start(); err != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("benchmark: starting hique-server: %w", err)
	}
	p := &serverProc{env: e, cmd: cmd, addr: "http://" + hostPort, logPath: logf.Name(), exited: make(chan struct{})}
	e.procs[p] = struct{}{}
	e.mu.Unlock()
	go func() {
		_ = cmd.Wait()
		close(p.exited)
	}()
	if err := p.waitHealthy(30 * time.Second); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (p *serverProc) pid() int { return p.cmd.Process.Pid }

func (p *serverProc) waitHealthy(budget time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(p.addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("benchmark: hique-server exited before becoming healthy\n%s", p.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("benchmark: hique-server at %s not healthy after %s\n%s", p.addr, budget, p.logTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (p *serverProc) logTail() string {
	data, err := os.ReadFile(p.logPath)
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// stop asks the server to drain (SIGTERM) and waits for it to exit,
// killing it if the drain outlasts the budget. It reports whether the
// server exited cleanly (code 0: drained and checkpointed).
func (p *serverProc) stop() error {
	defer p.forget()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("benchmark: hique-server ignored SIGTERM for 20s; killed\n%s", p.logTail())
	}
	if !p.cmd.ProcessState.Success() {
		return fmt.Errorf("benchmark: hique-server exited with %s\n%s", p.cmd.ProcessState, p.logTail())
	}
	return nil
}

// kill ends the server at once (SIGKILL) and waits for it.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
	p.forget()
}

func (p *serverProc) forget() {
	p.env.mu.Lock()
	delete(p.env.procs, p)
	p.env.mu.Unlock()
}

// conn is one keep-alive client connection: a transport capped at a
// single connection to the server, echoing the session the server
// minted on the first reply the way an application server would.
type conn struct {
	client  *http.Client
	tr      *http.Transport
	addr    string
	session string
	body    bytes.Reader
	resp    bytes.Buffer
}

func newConn(addr string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr, addr: addr}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// post sends one statement body to POST /query and returns the status
// and the whole response body, which stays valid until the next call.
func (c *conn) post(body []byte) (int, []byte, error) {
	c.body.Reset(body)
	req, err := http.NewRequest(http.MethodPost, c.addr+"/query", &c.body)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.session != "" {
		req.Header.Set(sessionHeader, c.session)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if c.session == "" {
		c.session = resp.Header.Get(sessionHeader)
	}
	return resp.StatusCode, c.resp.Bytes(), nil
}

const sessionHeader = "X-Hique-Session"

// promSamples is one scrape of a Prometheus text exposition: sample
// line (name plus label block, verbatim) to value.
type promSamples map[string]float64

func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
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
			return nil, fmt.Errorf("benchmark: unparsable metrics line %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every sample of the family whose label block contains all the
// given label fragments (e.g. `path="fused"`).
func (p promSamples) sum(family string, labels ...string) float64 {
	total := 0.0
	for k, v := range p {
		name, block := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			name, block = k[:i], k[i:]
		}
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(block, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// scrape reads GET /metrics of a server.
func scrape(addr string) (promSamples, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("benchmark: GET /metrics: HTTP %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}
