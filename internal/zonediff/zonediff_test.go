package zonediff

import (
	"testing"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

func d(y int, m time.Month, day int) time.Time {
	return time.Date(y, m, day, 0, 0, 0, 0, time.UTC)
}

func build(t *testing.T, at time.Time) *zone.Zone {
	t.Helper()
	z, err := rootzone.Build(at)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestDiffIdenticalZones(t *testing.T) {
	a := build(t, d(2019, time.April, 1))
	b := build(t, d(2019, time.April, 1))
	c := Diff(a, b)
	if len(c.AddedTLDs) != 0 || len(c.RemovedTLDs) != 0 || len(c.ChangedTLDs) != 0 ||
		c.AddedRRs != 0 || c.RemovedRRs != 0 {
		t.Errorf("identical zones diff: %+v", c)
	}
}

func TestDiffAcrossApril2019(t *testing.T) {
	a := build(t, d(2019, time.April, 1))
	b := build(t, d(2019, time.April, 30))
	c := Diff(a, b)
	// The paper: one TLD deleted during April 2019; only the rotating
	// TLDs change their records within the month.
	if len(c.RemovedTLDs) != 1 {
		t.Errorf("removed TLDs = %v, want exactly 1", c.RemovedTLDs)
	}
	if len(c.ChangedTLDs) > 6 {
		t.Errorf("changed TLDs = %d, want only the ~5 rotating ones", len(c.ChangedTLDs))
	}
}

func TestReachabilityFreshZone(t *testing.T) {
	a := build(t, d(2019, time.April, 1))
	r := CheckReachability(a, a)
	if r.Reachable != r.Total || len(r.Broken) != 0 {
		t.Errorf("fresh zone: %d/%d reachable, broken %v", r.Reachable, r.Total, r.Broken)
	}
	if r.ReachableShare() != 1 {
		t.Errorf("share = %f", r.ReachableShare())
	}
}

func TestReachabilityMonthStale(t *testing.T) {
	// §5.2: a zone one month out of date keeps 99.6% of TLDs reachable —
	// all but the ~5 rotating ones.
	stale := build(t, d(2019, time.April, 1))
	truth := build(t, d(2019, time.May, 1))
	r := CheckReachability(stale, truth)
	share := r.ReachableShare()
	if share < 0.99 || share >= 1.0 {
		t.Errorf("month-stale share = %.4f, want ~0.996", share)
	}
	brokenOld := 0
	for _, tld := range r.Broken {
		if info, ok := rootzone.Find(tld); ok && info.Rotating {
			brokenOld++
		}
	}
	if brokenOld < 4 {
		t.Errorf("expected the rotating TLDs among broken; got %v", r.Broken)
	}
}

func TestReachabilityTwoWeeksStale(t *testing.T) {
	// §5.2: rotation overlap guarantees full reachability within 14 days.
	stale := build(t, d(2019, time.April, 1))
	truth := build(t, d(2019, time.April, 14))
	r := CheckReachability(stale, truth)
	for _, tld := range r.Broken {
		if info, ok := rootzone.Find(tld); ok && info.Rotating {
			t.Errorf("rotating TLD %s broken at 14 days despite overlap", tld)
		}
	}
	if r.ReachableShare() < 0.995 {
		t.Errorf("14-day share = %.4f", r.ReachableShare())
	}
}

func TestReachabilityYearStale(t *testing.T) {
	// §5.2: a year-old zone loses ~50 TLDs (~3.3%): churners, rotators
	// and new additions.
	stale := build(t, d(2018, time.April, 1))
	truth := build(t, d(2019, time.April, 1))
	r := CheckReachability(stale, truth)
	share := r.ReachableShare()
	if share < 0.93 || share > 0.99 {
		t.Errorf("year-stale share = %.4f, want ~0.967", share)
	}
	// Paper: ~50 TLDs (3.3%) lose reachability over a year — the rotating
	// TLDs plus the annual churners.
	if n := len(r.Broken); n < 25 || n > 90 {
		t.Errorf("broken after a year = %d, want ~50", n)
	}
	// llc. was added 2018-02-23, so it exists in both — never missing.
	for _, tld := range r.Missing {
		if tld == "llc." {
			t.Error("llc. should exist in the April 2018 zone")
		}
	}
}

func TestRecentAdditions(t *testing.T) {
	old := build(t, d(2018, time.February, 1))
	new := build(t, d(2018, time.April, 11))
	adds := RecentAdditions(old, new)
	if len(adds) == 0 {
		t.Fatal("no recent additions found")
	}
	// llc. was added 2018-02-23 and must appear with NS + glue (glue may
	// live under a shared registry-operator domain rather than nic.llc).
	llcHosts := make(map[dnswire.Name]bool)
	var llcNS, llcGlue bool
	for _, rr := range adds {
		if rr.Name == "llc." && rr.Type == dnswire.TypeNS {
			llcNS = true
			llcHosts[rr.Data.(dnswire.NS).Host] = true
		}
	}
	for _, rr := range adds {
		if rr.Type == dnswire.TypeA && llcHosts[rr.Name] {
			llcGlue = true
		}
	}
	if !llcNS || !llcGlue {
		t.Errorf("llc records missing from additions (NS=%v glue=%v)", llcNS, llcGlue)
	}
	// The supplement is small relative to the zone (the §5.3 point).
	if len(adds) > new.Len()/10 {
		t.Errorf("additions file too large: %d records vs zone %d", len(adds), new.Len())
	}

	// Applying the additions to the stale zone makes the new TLDs
	// reachable.
	patched, err := old.Apply(zone.AddChanges(adds))
	if err != nil {
		t.Fatal(err)
	}
	r := CheckReachability(patched, new)
	for _, tld := range r.Missing {
		if tld == "llc." {
			t.Error("llc. still missing after applying additions")
		}
	}
}

func TestDiffDetectsAdditionsAndChanges(t *testing.T) {
	old := build(t, d(2018, time.February, 1))
	new := build(t, d(2018, time.April, 11))
	c := Diff(old, new)
	found := false
	for _, tld := range c.AddedTLDs {
		if tld == "llc." {
			found = true
		}
	}
	if !found {
		t.Errorf("llc. not in added TLDs: %v", c.AddedTLDs)
	}
	if c.AddedRRs == 0 {
		t.Error("no added records across two months")
	}
}
