package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/obs/traffic"
	"rootless/internal/resolver"
	"rootless/internal/rootzone"
	"rootless/internal/udpengine"
	"rootless/internal/zone"
)

// memTransport stands in for every TLD server: it answers an A query
// with a synthetic address and any other type with NODATA (the TLD's
// SOA in authority), at zero RTT, counting every exchange.
type memTransport struct {
	exchanges atomic.Int64
}

func (t *memTransport) Exchange(_ netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	t.exchanges.Add(1)
	resp := &dnswire.Message{ID: q.ID, Response: true, Authoritative: true, Questions: q.Questions}
	if len(q.Questions) != 1 {
		resp.Rcode = dnswire.RcodeFormat
		return resp, 0, nil
	}
	qq := q.Questions[0]
	if qq.Type == dnswire.TypeA {
		h := fnv.New32a()
		h.Write([]byte(qq.Name))
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], h.Sum32())
		a[0] = 198 // keep the synthetic addresses in one recognisable /8
		resp.Answers = []dnswire.RR{dnswire.NewRR(qq.Name, 300, dnswire.A{Addr: netip.AddrFrom4(a)})}
		return resp, 0, nil
	}
	tld := qq.Name.TLD()
	resp.Authority = []dnswire.RR{dnswire.NewRR(tld, 300, dnswire.SOA{
		MName: "ns." + tld, RName: "hostmaster." + tld,
		Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 300,
	})}
	return resp, 0, nil
}

// newHarnessResolver wires a resolver the way cmd/resolverd does with
// its defaults and -mode lookaside: coalescing and the NXDOMAIN cut on,
// 256 in-flight resolutions with a 50 ms queue deadline, an unbounded
// cache, validation off, the traffic analyzer on and a disabled tracer.
func newHarnessResolver(z *zone.Zone, tr resolver.Transport) *resolver.Resolver {
	r := resolver.New(resolver.Config{
		Mode:          resolver.RootModeLookaside,
		Transport:     tr,
		LocalZone:     z,
		Hints:         rootzone.Hints(),
		Coalesce:      true,
		NXDomainCut:   true,
		MaxInflight:   256,
		QueueDeadline: 50 * time.Millisecond,
	})
	tracer := obs.NewTracer(128, 0)
	tracer.SetEnabled(false)
	r.SetTracer(tracer)
	r.SetTraffic(traffic.NewAnalyzer(traffic.NewTLDSet(z.Delegations()), 16))
	return r
}

// harnessStats is what the resolver harness reports on request.
type harnessStats struct {
	Resolver     resolver.Stats
	CacheEntries int
	Exchanges    int64
	Engine       udpengine.WorkerStats
	GCs          uint32
	HeapAllocMB  float64
}

func loadZoneFile(path string) (*zone.Zone, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return zone.Parse(strings.NewReader(string(data)), dnswire.Root)
}

// serveResolver is the resolver workload's server process: lookaside
// resolver behind resolver.NewServer on a udpengine with resolverd's
// default workers and batch. Each "stats" line on stdin gets one JSON
// harnessStats line on stdout; EOF on stdin or SIGTERM stops it.
func serveResolver(args []string) error {
	fs := flag.NewFlagSet("serve-resolver", flag.ContinueOnError)
	zonePath := fs.String("zone", "", "root zone master file")
	listen := fs.String("listen", "127.0.0.1:0", "UDP listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	z, err := loadZoneFile(*zonePath)
	if err != nil {
		return err
	}
	tr := &memTransport{}
	r := newHarnessResolver(z, tr)
	eng, err := udpengine.New(udpengine.Config{
		Addr:      *listen,
		Workers:   runtime.GOMAXPROCS(0),
		Batch:     8,
		Handler:   resolver.NewServer(r).DatagramHandler(),
		MaxPacket: 64 * 1024,
	})
	if err != nil {
		return err
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer cancel()
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		enc := json.NewEncoder(os.Stdout)
		for sc.Scan() {
			if sc.Text() != "stats" {
				continue
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			_ = enc.Encode(harnessStats{
				Resolver:     r.Stats(),
				CacheEntries: r.Cache().Len(),
				Exchanges:    tr.exchanges.Load(),
				Engine:       eng.Stats().Total,
				GCs:          ms.NumGC,
				HeapAllocMB:  float64(ms.HeapAlloc) / (1 << 20),
			})
		}
		cancel()
	}()
	return eng.Serve(ctx)
}

// requestStats asks the resolver harness for a stats snapshot.
func requestStats(p *process) (harnessStats, error) {
	var st harnessStats
	if _, err := fmt.Fprintln(p.stdin, "stats"); err != nil {
		return st, err
	}
	line, err := p.stdout.ReadBytes('\n')
	if err != nil {
		return st, fmt.Errorf("harness stats: %w", err)
	}
	return st, json.Unmarshal(line, &st)
}

// serveEcho is the trivial responder the generator's ceiling is
// measured against: it returns each datagram with QR set.
func serveEcho(args []string) error {
	fs := flag.NewFlagSet("serve-echo", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:0", "UDP listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	conn, err := net.ListenPacket("udp", *listen)
	if err != nil {
		return err
	}
	_ = conn.(*net.UDPConn).SetReadBuffer(4 << 20) // best-effort
	buf := make([]byte, 64<<10)
	for {
		n, from, err := conn.ReadFrom(buf)
		if err != nil {
			return err
		}
		if n >= 4 {
			buf[2] |= 0x80
			_, _ = conn.WriteTo(buf[:n], from)
		}
	}
}
