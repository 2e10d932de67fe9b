// Attack: the §4 "root manipulation" man-in-the-middle. An on-path
// adversary (a censoring network operator, say) answers for the 13
// well-known root addresses and hands out forged TLD delegations. The
// classic resolver swallows them and resolves every name to the
// attacker; the local-root resolver never sends a root query, so there
// is nothing to manipulate — and the verified zone fetch rejects a
// forged zone file outright.
//
// Run: go run ./examples/attack
package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"rootless/internal/anycast"
	"rootless/internal/authserver"
	"rootless/internal/core"
	"rootless/internal/dist"
	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/netsim"
	"rootless/internal/resolver"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

type seedRand struct{ r *rand.Rand }

func (s seedRand) Read(p []byte) (int, error) { return s.r.Read(p) }

func main() {
	date := time.Date(2019, time.June, 7, 0, 0, 0, 0, time.UTC)
	rootZone, err := rootzone.Build(date)
	if err != nil {
		panic(err)
	}

	net := netsim.New(7, date)
	nyc := anycast.GeoPoint{Lat: 40.7, Lon: -74.0}
	client := anycast.GeoPoint{Lat: 55.8, Lon: 37.6} // a censored vantage

	rootSrv := authserver.New(rootZone)
	rootAddrs := make(map[netip.Addr]bool)
	for _, rl := range rootzone.RootLetters() {
		net.AddHost(string(rl.Host), rl.V4, nyc, rootSrv)
		rootAddrs[rl.V4] = true
	}

	// Honest TLD servers live behind every glue address in the root zone
	// and answer with the legitimate service address.
	cleanIP := netip.MustParseAddr("203.0.113.80")
	honestTLD := netsim.HandlerFunc(func(q *dnswire.Message, _ netip.Addr) *dnswire.Message {
		return &dnswire.Message{
			ID: q.ID, Response: true, Authoritative: true, Questions: q.Questions,
			Answers: []dnswire.RR{dnswire.NewRR(q.Questions[0].Name, 3600,
				dnswire.A{Addr: cleanIP})},
		}
	})
	for _, rr := range rootZone.Records() {
		if rr.Type == dnswire.TypeA && !rr.Name.IsSubdomainOf("root-servers.net.") {
			net.AddHost("tld:"+string(rr.Name), rr.Data.(dnswire.A).Addr, nyc, honestTLD)
		}
	}

	// The attacker's fake nameserver answers everything with its own IP.
	evilAddr := netip.MustParseAddr("198.18.66.66")
	evilIP := netip.MustParseAddr("198.18.66.99")
	net.AddHost("attacker-ns", evilAddr, client, netsim.HandlerFunc(
		func(q *dnswire.Message, _ netip.Addr) *dnswire.Message {
			return &dnswire.Message{
				ID: q.ID, Response: true, Authoritative: true, Questions: q.Questions,
				Answers: []dnswire.RR{dnswire.NewRR(q.Questions[0].Name, 60,
					dnswire.A{Addr: evilIP})},
			}
		}))

	// On-path interception of anything addressed to a root server.
	net.SetInterceptor(func(_ anycast.GeoPoint, dst netip.Addr, q *dnswire.Message) (*dnswire.Message, bool) {
		if !rootAddrs[dst] {
			return nil, false
		}
		tld := q.Questions[0].Name.TLD()
		return &dnswire.Message{
			ID: q.ID, Response: true, Questions: q.Questions,
			Authority:  []dnswire.RR{dnswire.NewRR(tld, 172800, dnswire.NS{Host: "ns.attacker."})},
			Additional: []dnswire.RR{dnswire.NewRR("ns.attacker.", 172800, dnswire.A{Addr: evilAddr})},
		}, true
	})

	classic := resolver.New(resolver.Config{
		Mode: resolver.RootModeHints, Hints: rootzone.Hints(),
		Transport: net.Client(client), Clock: net.Now,
	})
	local := resolver.New(resolver.Config{
		Mode: resolver.RootModeLookaside, LocalZone: rootZone,
		Transport: net.Client(client), Clock: net.Now,
	})

	names := []dnswire.Name{"www.bank.com.", "mail.example.org.", "news.site.net."}
	for _, r := range []*resolver.Resolver{classic, local} {
		fmt.Printf("--- %s mode, root path intercepted ---\n", r.Mode())
		for _, name := range names {
			res, err := r.Resolve(name, dnswire.TypeA)
			verdict := "no answer"
			if err == nil && len(res.Answers) > 0 {
				addr := res.Answers[0].Data.(dnswire.A).Addr
				if addr == evilIP {
					verdict = fmt.Sprintf("POISONED -> %s", addr)
				} else {
					verdict = fmt.Sprintf("clean -> %s", addr)
				}
			} else if err != nil {
				verdict = "failed: " + err.Error()
			}
			fmt.Printf("  %-20s %s\n", name, verdict)
		}
		fmt.Println()
	}

	// And the out-of-band path is protected by signatures: a forged zone
	// file from the same attacker fails verification.
	honest, _ := dnssec.NewSigner(dnswire.Root, seedRand{rand.New(rand.NewSource(1))})
	attacker, _ := dnssec.NewSigner(dnswire.Root, seedRand{rand.New(rand.NewSource(666))})
	forgedNS := dnswire.NewRR("com.", 172800, dnswire.NS{Host: "ns.attacker."})
	forgedZone, _ := rootZone.Apply([]zone.Change{
		{Key: forgedNS.Key(), Old: rootZone.Lookup("com.", dnswire.TypeNS), New: []dnswire.RR{forgedNS}}})
	forged, _ := dist.MakeBundle(forgedZone, attacker)

	lr, err := core.New(core.Config{
		Source:   dist.SourceFunc(func(context.Context) (*dist.Bundle, error) { return forged, nil }),
		KSK:      honest.KSK.DNSKEY, // the resolver trusts the honest key
		Resolver: local,
	})
	if err != nil {
		panic(err)
	}
	if lr.Tick(context.Background()) {
		fmt.Println("BUG: forged zone was installed")
	} else {
		fmt.Printf("forged zone file rejected at fetch time: %v\n", lr.State().LastErr)
	}
}
