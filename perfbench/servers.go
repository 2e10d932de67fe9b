package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rootless/internal/dnswire"
)

// process is a server the benchmark started and must stop.
type process struct {
	cmd    *exec.Cmd
	dns    *net.UDPAddr
	admin  string // authd's admin address
	stdin  io.WriteCloser
	stdout *bufio.Reader
	stderr *bytes.Buffer
	done   chan error
}

func (p *process) pid() int { return p.cmd.Process.Pid }

// stop terminates the process and waits for it to exit, killing it if
// it has not exited within 10 s of SIGTERM.
func (p *process) stop() {
	if p.stdin != nil {
		p.stdin.Close()
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// freePort asks the kernel for an unused loopback port of network.
func freePort(network string) (int, error) {
	switch network {
	case "udp":
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer c.Close()
		return c.LocalAddr().(*net.UDPAddr).Port, nil
	default:
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer l.Close()
		return l.Addr().(*net.TCPAddr).Port, nil
	}
}

// spawn starts bin with args. With stdio set, the process's stdin and
// stdout are piped to the benchmark.
func spawn(bin string, args []string, stdio bool) (*process, error) {
	p := &process{cmd: exec.Command(bin, args...), stderr: &bytes.Buffer{}, done: make(chan error, 1)}
	p.cmd.Stderr = p.stderr
	// The child dies with the benchmark even if the benchmark is killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if stdio {
		in, err := p.cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		out, err := p.cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		p.stdin, p.stdout = in, bufio.NewReader(out)
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { p.done <- p.cmd.Wait() }()
	return p, nil
}

// startProcess spawns bin and waits for it to answer probe correctly on
// dns. It returns the process and the time from exec to that first
// correct answer: zone parse, index, install and listen.
func startProcess(bin string, args []string, dns *net.UDPAddr, probe query, check func(*dnswire.Message) bool, stdio bool) (*process, time.Duration, error) {
	wire, err := probe.wire(0xbeef)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	p, err := spawn(bin, args, stdio)
	if err != nil {
		return nil, 0, err
	}
	p.dns = dns
	setup, err := awaitAnswer(p, wire, check, t0, 120*time.Second)
	if err != nil {
		p.stop()
		return nil, 0, fmt.Errorf("%s: %w; stderr: %s", bin, err, tail(p.stderr.String(), 400))
	}
	return p, setup, nil
}

// awaitAnswer re-sends wire every 2 ms until check accepts an answer.
func awaitAnswer(p *process, wire []byte, check func(*dnswire.Message) bool, t0 time.Time, limit time.Duration) (time.Duration, error) {
	conn, err := net.DialUDP("udp", nil, p.dns)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	buf := make([]byte, 64<<10)
	for time.Since(t0) < limit {
		select {
		case err := <-p.done:
			p.done <- err
			return 0, fmt.Errorf("exited before answering: %v", err)
		default:
		}
		_, _ = conn.Write(wire) // refused until the server binds
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Millisecond))
		for {
			k, err := conn.Read(buf)
			if err != nil {
				break
			}
			var m dnswire.Message
			if m.Unpack(buf[:k]) == nil && m.ID == 0xbeef && check(&m) {
				return time.Since(t0), nil
			}
		}
	}
	return 0, errors.New("no correct answer before the start-up limit")
}

func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// authdProbe is the set-up probe for authd: the com. referral.
var authdProbe = query{Name: "com.", Type: dnswire.TypeNS}

func authdProbeOK(m *dnswire.Message) bool {
	return m.Rcode == dnswire.RcodeSuccess && hasRR(m.Authority, "com.", dnswire.TypeNS)
}

// startAuthd runs cmd/authd with its default flags plus -tcp ” and a
// loopback -admin, serving zonePath.
func startAuthd(bin, zonePath string) (*process, time.Duration, error) {
	udp, err := freePort("udp")
	if err != nil {
		return nil, 0, err
	}
	admin, err := freePort("tcp")
	if err != nil {
		return nil, 0, err
	}
	dns := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: udp}
	adminAddr := fmt.Sprintf("127.0.0.1:%d", admin)
	args := []string{"-zone", zonePath, "-origin", ".", "-udp", dns.String(), "-tcp", "", "-admin", adminAddr}
	p, setup, err := startProcess(bin, args, dns, authdProbe, authdProbeOK, false)
	if err != nil {
		return nil, 0, err
	}
	p.admin = adminAddr
	// The admin endpoint starts in its own goroutine and may bind after
	// the first DNS answer; wait for it outside the set-up time.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := scrapeMetrics(adminAddr); err == nil {
			break
		} else if time.Now().After(deadline) {
			p.stop()
			return nil, 0, fmt.Errorf("authd admin endpoint: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return p, setup, nil
}

// resolverProbe is the set-up probe for the resolver harness: a junk
// TLD the local root zone denies.
var resolverProbe = query{Name: "perfbench-setup-probe.", Type: dnswire.TypeA, Junk: true}

func resolverProbeOK(m *dnswire.Message) bool { return m.Rcode == dnswire.RcodeNXDomain }

// startResolver re-executes this binary as the resolver harness.
func startResolver(self, zonePath string) (*process, time.Duration, error) {
	udp, err := freePort("udp")
	if err != nil {
		return nil, 0, err
	}
	dns := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: udp}
	return startProcess(self, []string{"serve-resolver", "-zone", zonePath, "-listen", dns.String()},
		dns, resolverProbe, resolverProbeOK, true)
}

// startEcho re-executes this binary as the trivial echo responder.
func startEcho(self string) (*process, error) {
	udp, err := freePort("udp")
	if err != nil {
		return nil, err
	}
	dns := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: udp}
	p, _, err := startProcess(self, []string{"serve-echo", "-listen", dns.String()},
		dns, authdProbe, func(*dnswire.Message) bool { return true }, false)
	return p, err
}

// scrapeMetrics fetches authd's /metrics and sums each metric over its
// labels.
func scrapeMetrics(admin string) (map[string]float64, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads the Prometheus text format, summing samples of one
// name across label sets.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}
