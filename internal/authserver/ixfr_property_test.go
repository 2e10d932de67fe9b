package authserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

// linearIXFRDiff is ixfrDiff as it was before it became a view over
// zone.Diff, kept as its differential oracle: it indexes both versions'
// records by presentation string.
func linearIXFRDiff(old, new *zone.Zone) (deleted, added []dnswire.RR) {
	oldSet := make(map[string]dnswire.RR)
	for _, rr := range old.Records() {
		if rr.Type == dnswire.TypeSOA && rr.Name == old.Origin {
			continue
		}
		oldSet[rr.String()] = rr
	}
	newSet := make(map[string]dnswire.RR)
	for _, rr := range new.Records() {
		if rr.Type == dnswire.TypeSOA && rr.Name == new.Origin {
			continue
		}
		newSet[rr.String()] = rr
	}
	for _, rr := range old.Records() {
		key := rr.String()
		if _, ok := newSet[key]; !ok && oldSet[key].Data != nil {
			deleted = append(deleted, rr)
		}
	}
	for _, rr := range new.Records() {
		key := rr.String()
		if _, ok := oldSet[key]; !ok {
			if rr.Type == dnswire.TypeSOA && rr.Name == new.Origin {
				continue
			}
			added = append(added, rr)
		}
	}
	return deleted, added
}

// randomVersion builds a zoneV-style zone with a random TLD subset and
// random extra address records whose TTLs vary, so versions differ by
// whole RRsets, single records and TTLs alone.
func randomVersion(t *testing.T, r *rand.Rand, serial uint32) *zone.Zone {
	var tlds []string
	for _, tld := range []string{"alpha", "beta", "gamma", "delta"} {
		if r.Intn(2) == 0 {
			tlds = append(tlds, tld)
		}
	}
	z := zoneV(t, serial, tlds...)
	for i := r.Intn(8); i > 0; i-- {
		name := dnswire.Name(fmt.Sprintf("h%d.com.", r.Intn(3)))
		rr := dnswire.NewRR(name, uint32(300*(1+r.Intn(2))), dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(r.Intn(3))})})
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	return z
}

// TestIXFRDiffMatchesLinearOracle: on random version pairs and on the
// April 2019 root zone fixtures, the zone.Diff view agrees exactly with
// the old string-indexed diff.
func TestIXFRDiffMatchesLinearOracle(t *testing.T) {
	check := func(tag string, old, new *zone.Zone) {
		t.Helper()
		gotDel, gotAdd := ixfrDiff(old, new)
		wantDel, wantAdd := linearIXFRDiff(old, new)
		if !reflect.DeepEqual(gotDel, wantDel) || !reflect.DeepEqual(gotAdd, wantAdd) {
			t.Fatalf("%s: ixfrDiff = -%v +%v\noracle -%v +%v", tag, gotDel, gotAdd, wantDel, wantAdd)
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		check(fmt.Sprint("seed ", seed), randomVersion(t, r, 1), randomVersion(t, r, 2))
	}
	apr1, err := rootzone.Build(time.Date(2019, time.April, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	apr30, err := rootzone.Build(time.Date(2019, time.April, 30, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	check("April 2019", apr1, apr30)
	check("April 2019 reversed", apr30, apr1)
}

// FuzzApplyIXFR feeds applyIXFR the answers of an arbitrary TCP byte
// stream, as IXFR reads them off the network. It must never panic or
// change the held zone, and a new zone it returns must keep canonical
// order and carry the stream's opening SOA.
func FuzzApplyIXFR(f *testing.F) {
	v1 := zoneV(f, 1, "alpha")
	srv := New(v1)
	srv.EnableIXFR(8)
	srv.SetZone(zoneV(f, 2, "alpha", "beta"))
	srv.SetZone(zoneV(f, 3, "beta", "gamma"))
	for _, client := range []*zone.Zone{v1, zoneV(f, 3), zoneV(f, 9, "prehistoric")} {
		var buf bytes.Buffer
		soa, _ := client.SOA()
		q := &dnswire.Message{ID: 1, Authority: []dnswire.RR{soa},
			Questions: []dnswire.Question{{Name: dnswire.Root, Type: dnswire.TypeIXFR, Class: dnswire.ClassINET}}}
		if err := srv.streamIXFR(&buf, q); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		have := zoneV(t, 1, "alpha")
		before := zone.Text(have)
		var answers []dnswire.RR
		for r := bytes.NewReader(stream); ; {
			m, err := ReadTCPMessage(r)
			if err != nil {
				break
			}
			answers = append(answers, m.Answers...)
		}
		got, _, err := applyIXFR(have, answers)
		if zone.Text(have) != before {
			t.Fatal("applyIXFR changed the held zone")
		}
		if err != nil {
			return
		}
		names := got.Names()
		for i := 1; i < len(names); i++ {
			if names[i-1].Compare(names[i]) >= 0 {
				t.Fatalf("owners out of canonical order: %q then %q", names[i-1], names[i])
			}
		}
		held := got == have // an up-to-date reply keeps the held zone
		for _, rr := range got.Lookup(got.Origin, dnswire.TypeSOA) {
			held = held || rr.String() == answers[0].String()
		}
		if !held {
			t.Fatalf("result lacks the opening SOA %s", answers[0])
		}
	})
}
