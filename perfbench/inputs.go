package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"rootless/internal/ditl"
	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

// The served zone is the one `rootzonegen -date 2019-06-01 -sign`
// writes: the synthetic root zone for that date, NSEC-chained and signed
// with keys drawn from rootzonegen's default key seed.
var zoneDate = time.Date(2019, time.June, 1, 0, 0, 0, 0, time.UTC)

const zoneKeySeed = 20190607

// zoneShape is the size check the built zone must pass before any run.
type zoneShape struct{ Owners, RRs, Delegations int }

var wantShape = zoneShape{Owners: 5201, RRs: 20415, Delegations: 1530}

func shapeOf(z *zone.Zone) zoneShape {
	return zoneShape{Owners: len(z.Names()), RRs: z.Len(), Delegations: len(z.Delegations())}
}

type seededReader struct{ r *rand.Rand }

func (s seededReader) Read(p []byte) (int, error) { return s.r.Read(p) }

// buildSignedZone builds and signs the root zone, checks its shape, and
// writes it as the master file the servers load.
func buildSignedZone(path string) (*zone.Zone, error) {
	z, err := rootzone.Build(zoneDate)
	if err != nil {
		return nil, fmt.Errorf("build root zone: %w", err)
	}
	signer, err := dnssec.NewSigner(dnswire.Root, seededReader{rand.New(rand.NewSource(zoneKeySeed))})
	if err != nil {
		return nil, fmt.Errorf("signer keys: %w", err)
	}
	signer.AddNSEC = true
	signer.Quantize = 14 * 24 * time.Hour
	signer.Validity = 28 * 24 * time.Hour
	if err := signer.SignZone(z, zoneDate); err != nil {
		return nil, fmt.Errorf("sign root zone: %w", err)
	}
	if got := shapeOf(z); got != wantShape {
		return nil, fmt.Errorf("signed zone shape %+v, want %+v", got, wantShape)
	}
	if err := os.WriteFile(path, []byte(zone.Text(z)), 0o644); err != nil {
		return nil, fmt.Errorf("write zone file: %w", err)
	}
	return z, nil
}

// query is one generated question plus what the benchmark knows about
// it: whether its TLD exists, whether DO is set, and whether an earlier
// query in the stream had the same cache key.
type query struct {
	Name   dnswire.Name
	Type   dnswire.Type
	EDNS   bool
	DO     bool
	Junk   bool
	Repeat bool
}

// class names the query's path: repeat, else valid or junk, each split
// by DO where the server sees EDNS.
func (q query) class() string {
	c := "valid"
	switch {
	case q.Repeat:
		c = "repeat"
	case q.Junk:
		c = "junk"
	}
	if !q.EDNS {
		return c
	}
	if q.DO {
		return c + "_do"
	}
	return c + "_nodo"
}

// wire packs the query with the given message ID: EDNS 1232 with the
// query's DO bit for authd, a plain RD stub query for the resolver.
func (q query) wire(id uint16) ([]byte, error) {
	m := dnswire.NewQuery(id, q.Name, q.Type)
	if q.EDNS {
		m.RecursionDesired = false
		m.SetEDNS(dnswire.DefaultEDNSSize, q.DO)
	}
	return m.Pack()
}

// tldSet indexes the zone's delegations.
func tldSet(tlds []dnswire.Name) map[dnswire.Name]bool {
	s := make(map[dnswire.Name]bool, len(tlds))
	for _, t := range tlds {
		s[t] = true
	}
	return s
}

// ditlQueries draws n queries from the paper-calibrated DITL model
// (61.0% bogus-TLD, Zipf TLD popularity, the root qtype mix). The model
// calibrates whole-trace shares, and a trace of a few hundred queries
// would hold only a couple of (resolver, TLD) pairs, so the n queries
// are a seeded sample, in trace order, of a trace at least
// ditlPoolFactor times larger (and never below ditlMinPool). The sample
// is stratified: it keeps the trace's junk share exactly, so seeds
// differ in which names they ask, not in how much junk.
func ditlQueries(seed int64, n int, tlds []dnswire.Name) ([]query, error) {
	pool := ditlPoolFactor * n
	if pool < ditlMinPool {
		pool = ditlMinPool
	}
	tr, err := ditl.Generate(ditl.GenConfig{Seed: seed, TotalQueries: pool, ValidTLDs: tlds})
	if err != nil {
		return nil, err
	}
	valid := tldSet(tlds)
	var junkIdx, validIdx []int
	for i, q := range tr.Queries {
		if valid[q.Name.TLD()] {
			validIdx = append(validIdx, i)
		} else {
			junkIdx = append(junkIdx, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	nJunk := int(math.Round(float64(n) * float64(len(junkIdx)) / float64(len(tr.Queries))))
	pick := append(sample(rng, junkIdx, nJunk), sample(rng, validIdx, n-nJunk)...)
	sort.Ints(pick)
	qs := make([]query, n)
	for i, j := range pick {
		q := tr.Queries[j]
		qs[i] = query{Name: q.Name, Type: q.Type, Junk: !valid[q.Name.TLD()]}
	}
	return qs, nil
}

// sample returns k elements of from, chosen uniformly without
// replacement.
func sample(rng *rand.Rand, from []int, k int) []int {
	out := make([]int, k)
	for i, j := range rng.Perm(len(from))[:k] {
		out[i] = from[j]
	}
	return out
}

const (
	ditlPoolFactor = 4
	ditlMinPool    = 50000
)

// drawDO sets EDNS on every query and splits qs into blocks equal runs
// in order; in each run it sets DO on exactly round(share*len) queries,
// chosen by a seeded shuffle. A fresh DO query costs authd more than
// ten times what a query without DO costs, so an even DO count keeps
// each measurement window's work the same.
func drawDO(qs []query, seed int64, share float64, blocks int) {
	rng := rand.New(rand.NewSource(seed ^ 0x5d0))
	n := len(qs)
	for b := 0; b < blocks; b++ {
		block := qs[b*n/blocks : (b+1)*n/blocks]
		nDO := int(math.Round(share * float64(len(block))))
		for k, i := range rng.Perm(len(block)) {
			block[i].EDNS = true
			block[i].DO = k < nDO
		}
	}
}

// cacheKey is what both servers' caches key on: the question, plus the
// EDNS mode at authd.
type cacheKey struct {
	name dnswire.Name
	typ  dnswire.Type
	edns bool
	do   bool
}

// markRepeats flags every query whose cache key appeared earlier, in
// seen or in qs itself, and adds qs's keys to seen.
func markRepeats(qs []query, seen map[cacheKey]bool) {
	for i := range qs {
		k := cacheKey{qs[i].Name, qs[i].Type, qs[i].EDNS, qs[i].DO}
		qs[i].Repeat = seen[k]
		seen[k] = true
	}
}

// rootQTypes is the root qtype mix ditl draws from.
var rootQTypes = []dnswire.Type{
	dnswire.TypeA, dnswire.TypeA, dnswire.TypeA, dnswire.TypeA,
	dnswire.TypeAAAA, dnswire.TypeAAAA,
	dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeMX, dnswire.TypeTXT,
	dnswire.TypeSRV, dnswire.TypePTR,
}

// hotQueries builds the cache-resident workload: a fixed set of setSize
// existing-TLD questions drawn from setSeed, a warm-up pass asking each
// once with and once without DO, and n timed queries drawn from drawSeed
// with Zipf popularity over the set and DO on a doShare of them.
func hotQueries(setSeed, drawSeed int64, n, setSize int, tlds []dnswire.Name, doShare float64) (warm, timed []query) {
	rng := rand.New(rand.NewSource(setSeed))
	hosts := []string{"www", "mail", "api", "cdn", "ns1", "app"}
	set := make([]query, setSize)
	for i := range set {
		tld := tlds[rng.Intn(len(tlds))]
		name := dnswire.Name(fmt.Sprintf("%s.site%d.%s", hosts[rng.Intn(len(hosts))], rng.Intn(1000), tld))
		set[i] = query{Name: name, Type: rootQTypes[rng.Intn(len(rootQTypes))], EDNS: true}
	}
	for _, q := range set {
		for _, do := range []bool{false, true} {
			q.DO = do
			warm = append(warm, q)
		}
	}
	rng = rand.New(rand.NewSource(drawSeed ^ 0x407))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(setSize-1))
	timed = make([]query, n)
	for i := range timed {
		timed[i] = set[zipf.Uint64()]
		timed[i].DO = rng.Float64() < doShare
	}
	return warm, timed
}
