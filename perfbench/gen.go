package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rootless/internal/dnswire"
)

// loadConfig drives one open-loop run.
type loadConfig struct {
	target  *net.UDPAddr
	sockets int
	rate    float64 // offered queries per second
	timeout time.Duration
	seed    int64 // seeds the exponential gaps
	// windows splits the queries into that many equal runs in send
	// order; mark, if set, is called as the first query of each window
	// after the first comes due.
	windows int
	mark    func()
}

// loadResult holds per-query outcomes of one run, in send order.
type loadResult struct {
	latMS    []float64 // from due time to correct answer; missed if none
	lateMS   []float64 // how far each send ran behind its due time
	failures map[string]int
	answered int
	strays   int // answers matching no outstanding query
}

// attempted is the number of queries the run sent.
func (r *loadResult) attempted() int { return len(r.latMS) }

// failed is the number of queries without a correct answer in time.
func (r *loadResult) failed() int { return r.attempted() - r.answered }

// checkFunc returns "" when m is a correct answer to query i, else the
// failure class.
type checkFunc func(i int, m *dnswire.Message) string

// schedule returns n due offsets from the run's start: seeded
// exponential gaps at rate, an open-loop Poisson arrival process.
func schedule(n int, rate float64, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// outcomes turns raw timings into latencies. A query counts as answered
// only with a correct answer (ok) that arrived within timeout of when it
// was due; anything else is missed. All times are ns from one base.
func outcomes(due, sent, recv []int64, ok []bool, timeout time.Duration) (latMS, lateMS []float64, answered int) {
	latMS = make([]float64, len(due))
	lateMS = make([]float64, len(due))
	for i := range due {
		lateMS[i] = float64(sent[i]-due[i]) / 1e6
		d := recv[i] - due[i]
		if ok[i] && recv[i] > 0 && d <= int64(timeout) {
			latMS[i] = float64(d) / 1e6
			answered++
		} else {
			latMS[i] = missed
		}
	}
	return latMS, lateMS, answered
}

// runLoad sends wires[i] when it is due, round-robin over cfg.sockets
// connected UDP sockets, and matches answers by message ID. wires[i]
// must carry ID uint16(i). It returns once every query has been
// answered or has timed out.
func runLoad(cfg loadConfig, wires [][]byte, check checkFunc) (*loadResult, error) {
	n := len(wires)
	if n == 0 {
		return nil, errors.New("runLoad: no queries")
	}
	conns := make([]*net.UDPConn, cfg.sockets)
	for c := range conns {
		conn, err := net.DialUDP("udp", nil, cfg.target)
		if err != nil {
			for _, o := range conns[:c] {
				o.Close()
			}
			return nil, fmt.Errorf("dial %v: %w", cfg.target, err)
		}
		// Best-effort: a larger buffer only guards against generator-side
		// drops at high rates, and the kernel may cap it.
		_ = conn.SetReadBuffer(4 << 20)
		conns[c] = conn
	}

	dueOff := schedule(n, cfg.rate, cfg.seed)
	due := make([]int64, n)
	sent := make([]int64, n)
	recv := make([]int64, n)
	ok := make([]bool, n)
	fail := make([]string, n)
	// pending[c][id] holds query index+1 for the query outstanding under
	// that ID on socket c; the receiver claims it with Swap, so at most
	// one answer is recorded per query.
	pending := make([][]atomic.Int32, len(conns))
	for c := range pending {
		pending[c] = make([]atomic.Int32, 1<<16)
	}
	base := time.Now()
	var strays atomic.Int64

	var wg sync.WaitGroup
	for c, conn := range conns {
		wg.Add(1)
		go func(c int, conn *net.UDPConn) {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for {
				k, err := conn.Read(buf)
				if err != nil {
					if errors.Is(err, net.ErrClosed) {
						return
					}
					continue // ICMP refusals and the like: keep reading
				}
				at := int64(time.Since(base))
				if k < 2 {
					strays.Add(1)
					continue
				}
				i := int(pending[c][binary.BigEndian.Uint16(buf)].Swap(0)) - 1
				if i < 0 {
					strays.Add(1)
					continue
				}
				recv[i] = at
				var m dnswire.Message
				if err := m.Unpack(buf[:k]); err != nil {
					fail[i] = failUnparseable
					continue
				}
				if f := check(i, &m); f != "" {
					fail[i] = f
					continue
				}
				ok[i] = true
			}
		}(c, conn)
	}

	// The sender keeps its own OS thread so it can sleep with nanosleep.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := base.Add(5 * time.Millisecond)
	off0 := int64(start.Sub(base))
	for i, w := range wires {
		due[i] = off0 + int64(dueOff[i])
		sleepUntil(start.Add(dueOff[i]))
		if cfg.mark != nil && i > 0 && windowOf(i, n, cfg.windows) != windowOf(i-1, n, cfg.windows) {
			cfg.mark()
		}
		c := i % len(conns)
		pending[c][uint16(i)].Store(int32(i + 1))
		sent[i] = int64(time.Since(base))
		if _, err := conns[c].Write(w); err != nil {
			fail[i] = "send:" + err.Error()
		}
	}
	// Every query gets its full timeout, counted from when it was due.
	time.Sleep(time.Until(base.Add(time.Duration(due[n-1]) + cfg.timeout + time.Millisecond)))
	for _, conn := range conns {
		conn.Close()
	}
	wg.Wait()

	res := &loadResult{failures: map[string]int{}, strays: int(strays.Load())}
	res.latMS, res.lateMS, res.answered = outcomes(due, sent, recv, ok, cfg.timeout)
	for i := range res.latMS {
		if res.latMS[i] != missed {
			continue
		}
		switch {
		case fail[i] != "":
			res.failures[fail[i]]++
		default:
			res.failures[failTimeout]++
		}
	}
	return res, nil
}

// sleepUntil blocks the calling OS thread until t. On a small VM the
// Go timer overshoots a sub-millisecond sleep by about 0.6 ms at the
// median, nanosleep by about 0.1 ms, and every overshoot is latency the
// generator adds to the measurement.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: sleep the rest
	}
}

// windowOf returns the window query i of n falls in, for equal windows
// in send order.
func windowOf(i, n, windows int) int {
	if windows <= 1 {
		return 0
	}
	return i * windows / n
}

// packQueries packs each query with ID uint16(i), as runLoad requires.
func packQueries(qs []query) ([][]byte, error) {
	wires := make([][]byte, len(qs))
	for i, q := range qs {
		w, err := q.wire(uint16(i))
		if err != nil {
			return nil, fmt.Errorf("pack %s %s: %w", q.Name, q.Type, err)
		}
		wires[i] = w
	}
	return wires, nil
}

// backlogGrowing reports whether latency climbed through the run: the
// median of the last quarter of queries (in send order) exceeds twice
// the first quarter's plus slackMS. Missed queries count as +Inf.
func backlogGrowing(latMS []float64, slackMS float64) bool {
	q := len(latMS) / 4
	if q == 0 {
		return false
	}
	first := quantile(append([]float64(nil), latMS[:q]...), 0.5)
	last := quantile(append([]float64(nil), latMS[len(latMS)-q:]...), 0.5)
	return last > 2*first+slackMS
}

// warmUp sends each query only after the previous one was answered (a
// closed loop), so filling a cold server's caches never overruns it.
// Every query must get a correct answer within timeout.
func warmUp(target *net.UDPAddr, wires [][]byte, check checkFunc, timeout time.Duration) error {
	conn, err := net.DialUDP("udp", nil, target)
	if err != nil {
		return err
	}
	defer conn.Close()
	buf := make([]byte, 64<<10)
	for i, w := range wires {
		if _, err := conn.Write(w); err != nil {
			return fmt.Errorf("warm-up query %d: %w", i, err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
		for {
			k, err := conn.Read(buf)
			if err != nil {
				return fmt.Errorf("warm-up query %d: %w", i, err)
			}
			if k < 2 || binary.BigEndian.Uint16(buf) != uint16(i) {
				continue // a stray from an earlier query
			}
			var m dnswire.Message
			if err := m.Unpack(buf[:k]); err != nil {
				return fmt.Errorf("warm-up query %d: %w", i, err)
			}
			if f := check(i, &m); f != "" {
				return fmt.Errorf("warm-up query %d: %s", i, f)
			}
			break
		}
	}
	return nil
}
