package zone

import (
	"math/rand"
	"strings"
	"testing"

	"rootless/internal/dnswire"
)

// FuzzZoneParse drives the master-file parser — the path for -zone files
// and mirror bundles — with arbitrary text. It must never panic, and a
// zone it accepts must hold its canonical order and survive a
// write/parse round trip.
func FuzzZoneParse(f *testing.F) {
	f.Add(sampleMaster)
	f.Add("$ORIGIN example.\n$TTL 3600\n@ IN SOA ns hostmaster 1 2 3 4 5\nwww IN A 192.0.2.1\n")
	f.Add("example. 60 IN TYPE999 \\# 3 010203\n")
	f.Add(". 60 IN NSEC com. NS SOA RRSIG NSEC DNSKEY\ncom. 60 IN NSEC . NS DS RRSIG NSEC\n")
	f.Add(`. 60 IN TXT "abc" "d;e"` + "\n")
	f.Add(". 60 CH TXT \"chaos\"\n. 60 IN TXT \"inet\"\n")
	for seed := int64(0); seed < 4; seed++ {
		f.Add(Text(randomZone(rand.New(rand.NewSource(seed)))))
	}
	f.Fuzz(func(t *testing.T, src string) {
		z, err := Parse(strings.NewReader(src), dnswire.Root)
		if err != nil {
			return
		}
		names := z.Names()
		for i := 1; i < len(names); i++ {
			if names[i-1].Compare(names[i]) >= 0 {
				t.Fatalf("owners out of canonical order: %q then %q", names[i-1], names[i])
			}
		}
		recs := z.Records()
		if len(recs) != z.Len() {
			t.Fatalf("Records holds %d records, Len %d", len(recs), z.Len())
		}
		n := 0
		for _, set := range z.RRsets() {
			n += len(set.RRs)
			for i, rr := range set.RRs {
				if rr.Key() != set.Key {
					t.Fatalf("record %s in RRset %v", rr, set.Key)
				}
				if i > 0 && set.RRs[i-1].Data.String() >= rr.Data.String() {
					t.Fatalf("RRset %v out of rdata order", set.Key)
				}
			}
		}
		if n != len(recs) {
			t.Fatalf("RRsets hold %d records, Records %d", n, len(recs))
		}
		text := Text(z)
		z2, err := Parse(strings.NewReader(text), dnswire.Root)
		if err != nil {
			t.Fatalf("reparse of written zone: %v\n%s", err, text)
		}
		if Text(z2) != text {
			t.Fatalf("write/parse round trip changed the zone:\n%s\nbecame\n%s", text, Text(z2))
		}
	})
}
