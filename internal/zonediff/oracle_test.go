package zonediff

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// linearRRsetDelta is RRsetDelta as it was before it became a view over
// zone.Diff, kept as its differential oracle: it groups both zones'
// records into map-held RRsets and compares them as string multisets.
func linearRRsetDelta(old, new *zone.Zone) (removed []dnswire.RRsetKey, added []dnswire.RR) {
	_, oldSets := dnswire.GroupRRsets(old.Records())
	newOrder, newSets := dnswire.GroupRRsets(new.Records())
	for key, oldSet := range oldSets {
		newSet, ok := newSets[key]
		if !ok || !linearSameRRset(oldSet, newSet) {
			removed = append(removed, key)
		}
	}
	for _, key := range newOrder {
		if oldSet, ok := oldSets[key]; ok && linearSameRRset(oldSet, newSets[key]) {
			continue
		}
		added = append(added, newSets[key]...)
	}
	sort.Slice(removed, func(i, j int) bool {
		if c := removed[i].Name.Compare(removed[j].Name); c != 0 {
			return c < 0
		}
		return removed[i].Type < removed[j].Type
	})
	return removed, added
}

func linearSameRRset(a, b []dnswire.RR) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]int, len(a))
	for _, rr := range a {
		set[rr.String()]++
	}
	for _, rr := range b {
		set[rr.String()]--
		if set[rr.String()] < 0 {
			return false
		}
	}
	return true
}

// linearRRCounts is the old record-level count in Diff: distinct record
// strings present on one side only.
func linearRRCounts(old, new *zone.Zone) (added, removed int) {
	set := func(z *zone.Zone) map[string]bool {
		out := make(map[string]bool)
		for _, rr := range z.Records() {
			out[rr.String()] = true
		}
		return out
	}
	oldAll, newAll := set(old), set(new)
	for s := range newAll {
		if !oldAll[s] {
			added++
		}
	}
	for s := range oldAll {
		if !newAll[s] {
			removed++
		}
	}
	return added, removed
}

// randomZone builds a small zone whose RRsets overlap heavily with any
// other from the same generator: whole RRsets, single records and TTLs
// alone differ, and TXT sets are class CHAOS.
func randomZone(t *testing.T, r *rand.Rand, serial uint32) *zone.Zone {
	z := zone.New(dnswire.Root)
	add := func(rr dnswire.RR) {
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	add(dnswire.NewRR(dnswire.Root, 86400, dnswire.SOA{MName: "m.", RName: "r.", Serial: serial}))
	for i := r.Intn(30); i > 0; i-- {
		name := dnswire.Name(fmt.Sprintf("%c.", 'a'+r.Intn(5)))
		ttl := uint32(300 * (1 + r.Intn(2)))
		switch r.Intn(4) {
		case 0:
			add(dnswire.NewRR(name, ttl, dnswire.NS{Host: dnswire.Name(fmt.Sprintf("ns%d.%s", r.Intn(3), name))}))
		case 1:
			add(dnswire.NewRR("ns0."+name, ttl, dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(r.Intn(3))})}))
		case 2:
			add(dnswire.NewRR(name, ttl, dnswire.DS{KeyTag: uint16(r.Intn(3)), Algorithm: 15, DigestType: 2, Digest: []byte{1}}))
		default:
			rr := dnswire.NewRR(name, ttl, dnswire.TXT{Strings: []string{fmt.Sprint(r.Intn(3))}})
			rr.Class = dnswire.ClassCH
			add(rr)
		}
	}
	return z
}

// TestDiffViewsMatchLinearOracles: RRsetDelta and the record counts of
// Diff, now views over zone.Diff, agree exactly with the old
// implementations on random zone pairs and the April 2019 fixtures.
func TestDiffViewsMatchLinearOracles(t *testing.T) {
	check := func(tag string, old, new *zone.Zone) {
		t.Helper()
		gotRemoved, gotAdded := RRsetDelta(old, new)
		wantRemoved, wantAdded := linearRRsetDelta(old, new)
		if !reflect.DeepEqual(gotRemoved, wantRemoved) || !reflect.DeepEqual(gotAdded, wantAdded) {
			t.Fatalf("%s: RRsetDelta = -%v +%v\noracle -%v +%v", tag, gotRemoved, gotAdded, wantRemoved, wantAdded)
		}
		c := Diff(old, new)
		wantAddedRRs, wantRemovedRRs := linearRRCounts(old, new)
		if c.AddedRRs != wantAddedRRs || c.RemovedRRs != wantRemovedRRs {
			t.Fatalf("%s: Diff counts +%d -%d, oracle +%d -%d", tag, c.AddedRRs, c.RemovedRRs, wantAddedRRs, wantRemovedRRs)
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		check(fmt.Sprint("seed ", seed), randomZone(t, r, 1), randomZone(t, r, 2))
	}
	apr1, apr30 := build(t, d(2019, time.April, 1)), build(t, d(2019, time.April, 30))
	check("April 2019", apr1, apr30)
	check("April 2019 reversed", apr30, apr1)
}
