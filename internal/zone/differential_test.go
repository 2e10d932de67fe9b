package zone

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"rootless/internal/dnswire"
)

// diffLabels is a small alphabet so random names collide, nest and leave
// empty non-terminals; "0" sorts before every other label and "zz" after.
var diffLabels = []string{"0", "a", "b", "c", "ns", "zz"}

// randomName returns a name of 0–3 labels under origin.
func randomName(r *rand.Rand, origin dnswire.Name) dnswire.Name {
	n := origin
	for depth := r.Intn(4); depth > 0; depth-- {
		n, _ = n.Child(diffLabels[r.Intn(len(diffLabels))])
	}
	return n
}

// randomRecord returns a record at name. The class is a function of the
// type (TXT is CHAOS, everything else IN), so no RRset mixes classes.
func randomRecord(r *rand.Rand, name dnswire.Name) dnswire.RR {
	ttl := uint32(300 * (1 + r.Intn(2)))
	switch r.Intn(7) {
	case 0:
		return dnswire.NewRR(name, ttl, dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(r.Intn(4))})})
	case 1:
		return dnswire.NewRR(name, ttl, dnswire.AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 1, 15: byte(r.Intn(4))})})
	case 2, 3:
		return dnswire.NewRR(name, ttl, dnswire.NS{Host: randomName(r, ".")})
	case 4:
		return dnswire.NewRR(name, ttl, dnswire.DS{KeyTag: uint16(r.Intn(3)), Algorithm: 15, DigestType: 2, Digest: []byte{1}})
	case 5:
		rr := dnswire.NewRR(name, ttl, dnswire.TXT{Strings: []string{fmt.Sprint(r.Intn(3))}})
		rr.Class = dnswire.ClassCH
		return rr
	default:
		return dnswire.NewRR(name, ttl, dnswire.CNAME{Target: randomName(r, ".")})
	}
}

// randomZonePair builds the same random zone twice, as a Zone and as the
// linear oracle, through a random sequence of adds and removes. With nsec
// set, a random subset of owners (sometimes excluding the apex) carries
// an NSEC record.
func randomZonePair(t *testing.T, r *rand.Rand, nsec bool) (*Zone, *linearZone) {
	origin := dnswire.Root
	if r.Intn(3) == 0 {
		origin = "b."
	}
	z, lz := New(origin), newLinearZone(origin)
	add := func(rr dnswire.RR) {
		if err, lerr := z.Add(rr), lz.Add(rr); (err == nil) != (lerr == nil) {
			t.Fatalf("Add(%s): zone err %v, oracle err %v", rr, err, lerr)
		}
	}
	add(dnswire.NewRR(origin, 86400, dnswire.SOA{MName: "m.", RName: "r.", Serial: 1}))
	for i := r.Intn(60); i > 0; i-- {
		name := randomName(r, origin)
		if r.Intn(5) == 0 {
			typ := []dnswire.Type{dnswire.TypeA, dnswire.TypeNS, dnswire.TypeTXT, dnswire.TypeANY}[r.Intn(4)]
			z.Remove(name, typ)
			lz.Remove(name, typ)
			continue
		}
		add(randomRecord(r, name))
	}
	if nsec {
		for _, n := range lz.Names() {
			if r.Intn(3) > 0 {
				add(dnswire.NewRR(n, 3600, dnswire.NSEC{NextName: randomName(r, origin), Types: []dnswire.Type{dnswire.TypeNS}}))
			}
		}
	}
	return z, lz
}

// sortedSection orders a response section record by record, so answers
// compare as sets: RRsets now come back in rdata order, where the oracle
// keeps insertion order.
func sortedSection(rrs []dnswire.RR) []string {
	out := make([]string, len(rrs))
	for i, rr := range rrs {
		out[i] = rr.String() + " " + rr.Class.String()
	}
	sort.Strings(out)
	return out
}

func sameAnswer(a, b Answer) bool {
	return a.Rcode == b.Rcode && a.Authoritative == b.Authoritative &&
		reflect.DeepEqual(sortedSection(a.Answer), sortedSection(b.Answer)) &&
		reflect.DeepEqual(sortedSection(a.Authority), sortedSection(b.Authority)) &&
		reflect.DeepEqual(sortedSection(a.Additional), sortedSection(b.Additional))
}

// TestZoneMatchesLinearOracle is the differential property test for the
// canonical-order representation: on random zones, signed with NSEC and
// unsigned, every walk and lookup agrees with the linear oracle, for
// random names including ones before the first owner and after the last.
func TestZoneMatchesLinearOracle(t *testing.T) {
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeNS, dnswire.TypeDS,
		dnswire.TypeSOA, dnswire.TypeTXT, dnswire.TypeCNAME, dnswire.TypeANY}
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		z, lz := randomZonePair(t, r, seed%2 == 1)
		if got, want := z.Names(), lz.Names(); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("seed %d: Names = %v, oracle %v", seed, got, want)
		}
		if got, want := z.Records(), lz.Records(); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("seed %d: Records = %v, oracle %v", seed, got, want)
		}
		if got, want := z.Delegations(), lz.Delegations(); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("seed %d: Delegations = %v, oracle %v", seed, got, want)
		}
		order, sets := dnswire.GroupRRsets(lz.Records())
		walk := z.RRsets()
		if len(walk) != len(order) {
			t.Fatalf("seed %d: %d RRsets, oracle groups %d", seed, len(walk), len(order))
		}
		for i, set := range walk {
			if set.Key != order[i] || !reflect.DeepEqual(set.RRs, sets[order[i]]) {
				t.Fatalf("seed %d: RRset %d = %v %v, oracle %v %v", seed, i, set.Key, set.RRs, order[i], sets[order[i]])
			}
		}
		names := append([]dnswire.Name{dnswire.Root, "0.", "zz.zz.zz.", "zzz.", "0.b.", "zzz.b."}, lz.Names()...)
		for i := 0; i < 30; i++ {
			names = append(names, randomName(r, "."), randomName(r, "b."))
		}
		for _, n := range names {
			if got, want := z.hasDescendants(n), lz.hasDescendants(n); got != want {
				t.Fatalf("seed %d: hasDescendants(%s) = %v, oracle %v", seed, n, got, want)
			}
			got, gotOK := z.NSECCovering(n)
			want, wantOK := lz.NSECCovering(n)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: NSECCovering(%s) = %v %v, oracle %v %v", seed, n, got, gotOK, want, wantOK)
			}
			if got, want := z.LookupAll(n), lz.LookupAll(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: LookupAll(%s) = %v, oracle %v", seed, n, got, want)
			}
			for _, typ := range types {
				if got, want := z.Query(n, typ), lz.Query(n, typ); !sameAnswer(got, want) {
					t.Fatalf("seed %d: Query(%s, %s) = %+v, oracle %+v", seed, n, typ, got, want)
				}
			}
		}
	}
}

// TestDiffApplyRoundTrip: applying Diff(a, b) to a yields b, and neither
// input changes.
func TestDiffApplyRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		a, _ := randomZonePair(t, r, seed%2 == 1)
		b, _ := randomZonePair(t, r, seed%3 == 1)
		if a.Origin != b.Origin {
			continue
		}
		aText, bText := Text(a), Text(b)
		got, err := a.Apply(Diff(a, b))
		if err != nil {
			t.Fatalf("seed %d: Apply: %v", seed, err)
		}
		if Text(got) != bText || Text(a) != aText || Text(b) != bText {
			t.Fatalf("seed %d: Apply(Diff(a, b)) != b\n%s\nwant\n%s", seed, Text(got), bText)
		}
		if len(Diff(got, b)) != 0 {
			t.Fatalf("seed %d: Diff after round trip not empty", seed)
		}
	}
}
