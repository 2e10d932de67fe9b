package authserver

import (
	"context"
	"net"
	"reflect"
	"strings"
	"testing"

	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// zoneV builds a versioned test zone: serial plus a per-version TLD set.
func zoneV(t testing.TB, serial uint32, extraTLDs ...string) *zone.Zone {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(". 86400 IN SOA a.root-servers.net. nstld.verisign-grs.com. ")
	sb.WriteString(uitoa(serial))
	sb.WriteString(" 1800 900 604800 86400\n")
	sb.WriteString(". 518400 IN NS a.root-servers.net.\na.root-servers.net. 518400 IN A 198.41.0.4\n")
	sb.WriteString("com. 172800 IN NS a.gtld-servers.net.\na.gtld-servers.net. 172800 IN A 192.5.6.30\n")
	for _, tld := range extraTLDs {
		sb.WriteString(tld + ". 172800 IN NS ns0.nic." + tld + ".\n")
		sb.WriteString("ns0.nic." + tld + ". 172800 IN A 100.2.3.4\n")
	}
	z, err := zone.Parse(strings.NewReader(sb.String()), dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func uitoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestIXFRDiff(t *testing.T) {
	old := zoneV(t, 1, "alpha")
	new := zoneV(t, 2, "beta")
	deleted, added := ixfrDiff(old, new)
	delNames := map[dnswire.Name]bool{}
	for _, rr := range deleted {
		delNames[rr.Name] = true
	}
	addNames := map[dnswire.Name]bool{}
	for _, rr := range added {
		addNames[rr.Name] = true
	}
	if !delNames["alpha."] || !delNames["ns0.nic.alpha."] {
		t.Errorf("deleted = %v", delNames)
	}
	if !addNames["beta."] || !addNames["ns0.nic.beta."] {
		t.Errorf("added = %v", addNames)
	}
	if delNames["com."] || addNames["com."] {
		t.Error("unchanged records appear in the diff")
	}
}

// ixfrServer spins a TCP-serving authserver with IXFR journaling.
func ixfrServer(t *testing.T, versions ...*zone.Zone) (string, *Server, func()) {
	t.Helper()
	srv := New(versions[0])
	srv.EnableIXFR(8)
	for _, z := range versions[1:] {
		srv.SetZone(z)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeTCP(ctx, l) }()
	return l.Addr().String(), srv, func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeTCP: %v", err)
		}
	}
}

func TestIXFRIncremental(t *testing.T) {
	v1 := zoneV(t, 1, "alpha")
	v2 := zoneV(t, 2, "alpha", "beta")
	v3 := zoneV(t, 3, "beta", "gamma")
	addr, srv, stop := ixfrServer(t, v1, v2, v3)
	defer stop()

	// Client holds v1, syncs to v3 incrementally.
	got, incremental, err := IXFR(addr, v1.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !incremental {
		t.Error("expected incremental transfer")
	}
	if got.Serial() != 3 {
		t.Errorf("serial = %d", got.Serial())
	}
	if !reflect.DeepEqual(recordsOf(got), recordsOf(v3)) {
		t.Errorf("IXFR result differs from v3:\n%v\nvs\n%v", recordsOf(got), recordsOf(v3))
	}
	if srv.Stats().IXFRs != 1 {
		t.Errorf("stats: %+v", srv.Stats())
	}
}

func TestIXFRUpToDate(t *testing.T) {
	v3 := zoneV(t, 3, "beta", "gamma")
	addr, _, stop := ixfrServer(t, v3)
	defer stop()
	got, incremental, err := IXFR(addr, v3.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !incremental || got.Serial() != 3 {
		t.Errorf("up-to-date: incr=%v serial=%d", incremental, got.Serial())
	}
}

func TestIXFRFallbackToFull(t *testing.T) {
	// A client serial outside the journal gets a full transfer.
	v2 := zoneV(t, 2, "alpha", "beta")
	v3 := zoneV(t, 3, "beta", "gamma")
	addr, _, stop := ixfrServer(t, v2, v3)
	defer stop()

	ancient := zoneV(t, 1, "prehistoric")
	got, incremental, err := IXFR(addr, ancient)
	if err != nil {
		t.Fatal(err)
	}
	if incremental {
		t.Error("expected full-transfer fallback")
	}
	if got.Serial() != 3 {
		t.Errorf("serial = %d", got.Serial())
	}
	if !reflect.DeepEqual(recordsOf(got), recordsOf(v3)) {
		t.Error("fallback result differs from current zone")
	}
}

func TestIXFRWrongOrigin(t *testing.T) {
	v1 := zoneV(t, 1, "alpha")
	addr, _, stop := ixfrServer(t, v1)
	defer stop()
	foreign := zone.New("com.")
	_ = foreign.Add(dnswire.NewRR("com.", 60, dnswire.SOA{MName: "m.", RName: "r.", Serial: 9}))
	if _, _, err := IXFR(addr, foreign); err == nil {
		t.Error("foreign-origin IXFR should fail")
	}
}

func TestIXFRNoSOA(t *testing.T) {
	if _, _, err := IXFR("127.0.0.1:1", zone.New(dnswire.Root)); err == nil {
		t.Error("IXFR without SOA should fail before dialing")
	}
}

func TestIXFRSequentialSyncs(t *testing.T) {
	// A client can ride serial to serial as the publisher re-publishes.
	v1 := zoneV(t, 1, "alpha")
	srv := New(v1)
	srv.EnableIXFR(8)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = srv.ServeTCP(ctx, l) }()

	client := v1.Clone()
	for serial := uint32(2); serial <= 5; serial++ {
		srv.SetZone(zoneV(t, serial, "alpha", "tld"+uitoa(serial)))
		got, incremental, err := IXFR(l.Addr().String(), client)
		if err != nil {
			t.Fatalf("serial %d: %v", serial, err)
		}
		if !incremental {
			t.Errorf("serial %d: not incremental", serial)
		}
		client = got
		if client.Serial() != serial {
			t.Fatalf("client at %d, want %d", client.Serial(), serial)
		}
	}
	if !reflect.DeepEqual(recordsOf(client), recordsOf(srv.Zone())) {
		t.Error("final client state differs from server")
	}
}

func TestIXFRDeltaSmallerThanFull(t *testing.T) {
	// The point of IXFR: a one-TLD change moves O(change), not O(zone).
	big := make([]string, 120)
	for i := range big {
		big[i] = "tld" + uitoa(uint32(i))
	}
	v1 := zoneV(t, 1, big...)
	v2 := zoneV(t, 2, append(big, "brandnew")...)
	srv := New(v1)
	srv.EnableIXFR(4)
	srv.SetZone(v2)

	var ixfrBuf, axfrBuf lenWriter
	q := &dnswire.Message{ID: 1, Questions: []dnswire.Question{{Name: dnswire.Root, Type: dnswire.TypeIXFR, Class: dnswire.ClassINET}}}
	soa, _ := v1.SOA()
	q.Authority = []dnswire.RR{soa}
	if err := srv.streamIXFR(&ixfrBuf, q); err != nil {
		t.Fatal(err)
	}
	qa := &dnswire.Message{ID: 1, Questions: []dnswire.Question{{Name: dnswire.Root, Type: dnswire.TypeAXFR, Class: dnswire.ClassINET}}}
	if err := srv.streamAXFR(&axfrBuf, qa); err != nil {
		t.Fatal(err)
	}
	if ixfrBuf.n*5 > axfrBuf.n {
		t.Errorf("IXFR %d bytes vs AXFR %d bytes: not a meaningful saving", ixfrBuf.n, axfrBuf.n)
	}
}

type lenWriter struct{ n int }

func (w *lenWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

func recordsOf(z *zone.Zone) []string {
	var out []string
	for _, rr := range z.Records() {
		out = append(out, rr.String())
	}
	return out
}
