package zone

import (
	"math/rand"
	"net/netip"
	"testing"

	"rootless/internal/dnswire"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// testRootZone builds a miniature root zone with two delegated TLDs.
func testRootZone(t *testing.T) *Zone {
	t.Helper()
	z := New(dnswire.Root)
	add := func(rr dnswire.RR) {
		t.Helper()
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	add(dnswire.NewRR(dnswire.Root, 86400, dnswire.SOA{
		MName: "a.root-servers.net.", RName: "nstld.verisign-grs.com.",
		Serial: 2019041100, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
	}))
	add(dnswire.NewRR(dnswire.Root, 518400, dnswire.NS{Host: "a.root-servers.net."}))
	add(dnswire.NewRR("a.root-servers.net.", 518400, dnswire.A{Addr: addr("198.41.0.4")}))
	// com. delegation with in-bailiwick glue.
	add(dnswire.NewRR("com.", 172800, dnswire.NS{Host: "a.gtld-servers.net."}))
	add(dnswire.NewRR("com.", 172800, dnswire.NS{Host: "b.gtld-servers.net."}))
	add(dnswire.NewRR("a.gtld-servers.net.", 172800, dnswire.A{Addr: addr("192.5.6.30")}))
	add(dnswire.NewRR("a.gtld-servers.net.", 172800, dnswire.AAAA{Addr: addr("2001:503:a83e::2:30")}))
	add(dnswire.NewRR("b.gtld-servers.net.", 172800, dnswire.A{Addr: addr("192.33.14.30")}))
	add(dnswire.NewRR("com.", 86400, dnswire.DS{KeyTag: 30909, Algorithm: 8, DigestType: 2, Digest: []byte{1, 2}}))
	// org. delegation.
	add(dnswire.NewRR("org.", 172800, dnswire.NS{Host: "a0.org.afilias-nst.info."}))
	add(dnswire.NewRR("a0.org.afilias-nst.info.", 172800, dnswire.A{Addr: addr("199.19.56.1")}))
	return z
}

func TestZoneAddLookup(t *testing.T) {
	z := testRootZone(t)
	if got := len(z.Lookup("com.", dnswire.TypeNS)); got != 2 {
		t.Errorf("com. NS count = %d, want 2", got)
	}
	if z.Lookup("net.", dnswire.TypeNS) != nil {
		t.Error("net. should not exist")
	}
	if z.Len() != 11 {
		t.Errorf("Len = %d, want 11", z.Len())
	}
	if z.RRsetCount() != 10 {
		t.Errorf("RRsetCount = %d, want 10", z.RRsetCount())
	}
	// Duplicate add is a no-op.
	if err := z.Add(dnswire.NewRR("com.", 172800, dnswire.NS{Host: "a.gtld-servers.net."})); err != nil {
		t.Fatal(err)
	}
	if got := len(z.Lookup("com.", dnswire.TypeNS)); got != 2 {
		t.Errorf("after dup add, com. NS count = %d, want 2", got)
	}
	if z.Serial() != 2019041100 {
		t.Errorf("Serial = %d", z.Serial())
	}
}

func TestZoneRejectsOutOfOrigin(t *testing.T) {
	z := New("com.")
	err := z.Add(dnswire.NewRR("example.org.", 60, dnswire.NS{Host: "ns.example.org."}))
	if err == nil {
		t.Fatal("expected out-of-origin rejection")
	}
}

func TestZoneQueryReferral(t *testing.T) {
	z := testRootZone(t)
	ans := z.Query("www.example.com.", dnswire.TypeA)
	if ans.Rcode != dnswire.RcodeSuccess || ans.Authoritative {
		t.Fatalf("referral rcode=%v auth=%v", ans.Rcode, ans.Authoritative)
	}
	if len(ans.Answer) != 0 {
		t.Error("referral should have no answer")
	}
	nsCount, dsCount := 0, 0
	for _, rr := range ans.Authority {
		switch rr.Type {
		case dnswire.TypeNS:
			nsCount++
		case dnswire.TypeDS:
			dsCount++
		}
	}
	if nsCount != 2 || dsCount != 1 {
		t.Errorf("authority NS=%d DS=%d, want 2,1", nsCount, dsCount)
	}
	if len(ans.Additional) != 3 {
		t.Errorf("glue count = %d, want 3", len(ans.Additional))
	}
}

func TestZoneQueryApex(t *testing.T) {
	z := testRootZone(t)
	ans := z.Query(dnswire.Root, dnswire.TypeNS)
	if !ans.Authoritative || len(ans.Answer) != 1 {
		t.Fatalf("apex NS: auth=%v answers=%d", ans.Authoritative, len(ans.Answer))
	}
	ans = z.Query(dnswire.Root, dnswire.TypeSOA)
	if !ans.Authoritative || len(ans.Answer) != 1 {
		t.Fatalf("apex SOA: auth=%v answers=%d", ans.Authoritative, len(ans.Answer))
	}
}

func TestZoneQueryDSAtCut(t *testing.T) {
	z := testRootZone(t)
	// DS at a zone cut is answered authoritatively by the parent.
	ans := z.Query("com.", dnswire.TypeDS)
	if !ans.Authoritative || len(ans.Answer) != 1 || ans.Answer[0].Type != dnswire.TypeDS {
		t.Fatalf("DS query: %+v", ans)
	}
	// But an A query at the cut is a referral.
	ans = z.Query("com.", dnswire.TypeA)
	if ans.Authoritative || len(ans.Authority) == 0 {
		t.Fatalf("A at cut should refer: %+v", ans)
	}
}

func TestZoneQueryNXDomain(t *testing.T) {
	z := testRootZone(t)
	ans := z.Query("nonexistent-tld.", dnswire.TypeA)
	if ans.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("rcode = %v, want NXDOMAIN", ans.Rcode)
	}
	if len(ans.Authority) != 1 || ans.Authority[0].Type != dnswire.TypeSOA {
		t.Error("NXDOMAIN should carry the SOA")
	}
}

func TestZoneQueryNodata(t *testing.T) {
	z := testRootZone(t)
	ans := z.Query("a.root-servers.net.", dnswire.TypeAAAA)
	if ans.Rcode != dnswire.RcodeSuccess || len(ans.Answer) != 0 {
		t.Fatalf("NODATA: %+v", ans)
	}
	if len(ans.Authority) != 1 || ans.Authority[0].Type != dnswire.TypeSOA {
		t.Error("NODATA should carry the SOA")
	}
}

func TestZoneQueryEmptyNonTerminal(t *testing.T) {
	z := New(dnswire.Root)
	if err := z.Add(dnswire.NewRR(dnswire.Root, 86400, dnswire.SOA{MName: "m.", RName: "r.", Serial: 1})); err != nil {
		t.Fatal(err)
	}
	if err := z.Add(dnswire.NewRR("a.b.example.", 60, dnswire.A{Addr: addr("192.0.2.1")})); err != nil {
		t.Fatal(err)
	}
	ans := z.Query("b.example.", dnswire.TypeA)
	if ans.Rcode != dnswire.RcodeSuccess {
		t.Fatalf("empty non-terminal should be NODATA, got %v", ans.Rcode)
	}
}

func TestZoneQueryRefusedOutside(t *testing.T) {
	z := New("com.")
	ans := z.Query("example.org.", dnswire.TypeA)
	if ans.Rcode != dnswire.RcodeRefused {
		t.Fatalf("rcode = %v, want REFUSED", ans.Rcode)
	}
}

func TestZoneQueryANY(t *testing.T) {
	z := testRootZone(t)
	ans := z.Query("a.gtld-servers.net.", dnswire.TypeANY)
	if len(ans.Answer) != 2 {
		t.Fatalf("ANY answers = %d, want 2", len(ans.Answer))
	}
}

func TestZoneQueryCNAME(t *testing.T) {
	z := New("example.com.")
	if err := z.Add(dnswire.NewRR("www.example.com.", 60, dnswire.CNAME{Target: "example.com."})); err != nil {
		t.Fatal(err)
	}
	ans := z.Query("www.example.com.", dnswire.TypeA)
	if len(ans.Answer) != 1 || ans.Answer[0].Type != dnswire.TypeCNAME {
		t.Fatalf("CNAME answer: %+v", ans)
	}
}

func TestZoneRemove(t *testing.T) {
	z := testRootZone(t)
	z.Remove("org.", dnswire.TypeNS)
	if z.Lookup("org.", dnswire.TypeNS) != nil {
		t.Error("org. NS should be removed")
	}
	// With the delegation gone, the query becomes NXDOMAIN.
	ans := z.Query("org.", dnswire.TypeA)
	if ans.Rcode != dnswire.RcodeNXDomain {
		t.Errorf("after delegation removal, rcode = %v", ans.Rcode)
	}
	z.Remove("a.gtld-servers.net.", dnswire.TypeANY)
	if z.HasName("a.gtld-servers.net.") {
		t.Error("ANY removal should drop the name")
	}
}

func TestZoneNamesCanonicalOrder(t *testing.T) {
	z := testRootZone(t)
	names := z.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1].Compare(names[i]) >= 0 {
			t.Fatalf("names out of order: %q >= %q", names[i-1], names[i])
		}
	}
	if names[0] != dnswire.Root {
		t.Errorf("first name = %q, want root", names[0])
	}
}

func TestZoneDelegations(t *testing.T) {
	z := testRootZone(t)
	dels := z.Delegations()
	if len(dels) != 2 || dels[0] != "com." || dels[1] != "org." {
		t.Errorf("Delegations = %v", dels)
	}
}

func TestZoneClone(t *testing.T) {
	z := testRootZone(t)
	c := z.Clone()
	if c.Len() != z.Len() {
		t.Fatalf("clone Len = %d, want %d", c.Len(), z.Len())
	}
	c.Remove("com.", dnswire.TypeNS)
	if len(z.Lookup("com.", dnswire.TypeNS)) != 2 {
		t.Error("mutating clone affected original")
	}
}

// TestZoneANYCanonicalTypeOrder: the ANY answer and LookupAll list an
// owner's RRsets in type order however the zone was built, so the same
// question always gets the same answer.
func TestZoneANYCanonicalTypeOrder(t *testing.T) {
	records := []dnswire.RR{
		dnswire.NewRR("x.", 300, dnswire.TXT{Strings: []string{"t"}}),
		dnswire.NewRR("x.", 300, dnswire.A{Addr: addr("192.0.2.1")}),
		dnswire.NewRR("x.", 300, dnswire.AAAA{Addr: addr("2001:db8::1")}),
		dnswire.NewRR("x.", 300, dnswire.MX{Preference: 10, Host: "mx.x."}),
		dnswire.NewRR("x.", 300, dnswire.CAA{Tag: "issue", Value: "ca."}),
		dnswire.NewRR("x.", 300, dnswire.NSEC{NextName: "y.", Types: []dnswire.Type{dnswire.TypeA}}),
		dnswire.NewRR("x.", 300, dnswire.SRV{Priority: 1, Weight: 1, Port: 53, Target: "s.x."}),
		dnswire.NewRR("x.", 300, dnswire.DS{KeyTag: 1, Algorithm: 15, DigestType: 2, Digest: []byte{1}}),
	}
	r := rand.New(rand.NewSource(1))
	for build := 0; build < 20; build++ {
		z := New(dnswire.Root)
		for _, i := range r.Perm(len(records)) {
			if err := z.Add(records[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, got := range [][]dnswire.RR{z.Query("x.", dnswire.TypeANY).Answer, z.LookupAll("x.")} {
			if len(got) != len(records) {
				t.Fatalf("build %d: %d records, want %d", build, len(got), len(records))
			}
			for i := 1; i < len(got); i++ {
				if got[i-1].Type >= got[i].Type {
					t.Fatalf("build %d: ANY answer out of type order: %v before %v", build, got[i-1].Type, got[i].Type)
				}
			}
		}
	}
}

// TestApplyAndCloneDoNotAlias pins copy-on-write: changing a zone built
// by Apply or Clone — adding into an RRset that already exists, adding a
// new owner, removing — leaves the source untouched, and changing the
// source leaves them untouched, while readers query the unchanged side
// concurrently (run under -race).
func TestApplyAndCloneDoNotAlias(t *testing.T) {
	mutate := func(z *Zone) {
		for _, rr := range []dnswire.RR{
			dnswire.NewRR("com.", 172800, dnswire.NS{Host: "c.gtld-servers.net."}),
			dnswire.NewRR("com.", 172800, dnswire.NS{Host: "0.gtld-servers.net."}),
			dnswire.NewRR("a.gtld-servers.net.", 172800, dnswire.A{Addr: addr("192.5.6.31")}),
			dnswire.NewRR("net.", 172800, dnswire.NS{Host: "a.gtld-servers.net."}),
			dnswire.NewRR("org.", 3600, dnswire.NSEC{NextName: "com.", Types: []dnswire.Type{dnswire.TypeNS}}),
		} {
			if err := z.Add(rr); err != nil {
				t.Error(err)
			}
		}
		z.Remove("b.gtld-servers.net.", dnswire.TypeA)
		z.Remove("a.gtld-servers.net.", dnswire.TypeAAAA)
		z.Remove("org.", dnswire.TypeANY)
	}
	read := func(z *Zone, stop <-chan struct{}, done chan<- struct{}) {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			z.Query("www.com.", dnswire.TypeA)
			z.Query("nonexistent.", dnswire.TypeA)
			z.NSECCovering("net.")
			z.Records()
		}
	}
	// check runs mutate on one zone while readers query the other, then
	// requires the other to be exactly as it was.
	check := func(name string, stable, changed *Zone) {
		t.Helper()
		before := Text(stable)
		stop, done := make(chan struct{}), make(chan struct{})
		go read(stable, stop, done)
		mutate(changed)
		close(stop)
		<-done
		if Text(stable) != before {
			t.Errorf("%s: changing one zone changed the other", name)
		}
	}
	build := func() *Zone {
		z := testRootZone(t)
		if err := z.Add(dnswire.NewRR("com.", 3600, dnswire.NSEC{NextName: "org.", Types: []dnswire.Type{dnswire.TypeNS}})); err != nil {
			t.Fatal(err)
		}
		return z
	}

	src := build()
	check("Clone", src, src.Clone())
	applied, err := src.Apply([]Change{{Key: dnswire.RRsetKey{Name: "com.", Type: dnswire.TypeDS, Class: dnswire.ClassINET},
		Old: src.Lookup("com.", dnswire.TypeDS)}})
	if err != nil {
		t.Fatal(err)
	}
	check("Apply", src, applied)

	// The reverse direction: the source changes, the copies must not.
	src = build()
	clone := src.Clone()
	applied, err = src.Apply(nil)
	if err != nil {
		t.Fatal(err)
	}
	check("source of Clone", clone, src)
	check("source of Apply", applied, src)
}
