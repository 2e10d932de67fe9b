package zone

import (
	"fmt"
	"sort"

	"rootless/internal/dnswire"
)

// linearZone is the map-of-maps zone this package used before it kept
// canonical order itself, kept as the differential oracle for Zone: every
// walk sorts, the empty-non-terminal test scans every owner and the NSEC
// cover rebuilds and sorts the chain. It is deliberately naive; only
// LookupAll and the ANY answer differ from the old code, which returned
// records in Go map order and now list them by type.
type linearZone struct {
	origin  dnswire.Name
	records map[dnswire.Name]map[dnswire.Type][]dnswire.RR
}

func newLinearZone(origin dnswire.Name) *linearZone {
	return &linearZone{origin: origin, records: make(map[dnswire.Name]map[dnswire.Type][]dnswire.RR)}
}

func (z *linearZone) Add(rr dnswire.RR) error {
	if !rr.Name.IsSubdomainOf(z.origin) {
		return fmt.Errorf("linear: record %s outside origin %s", rr.Name, z.origin)
	}
	byType, ok := z.records[rr.Name]
	if !ok {
		byType = make(map[dnswire.Type][]dnswire.RR)
		z.records[rr.Name] = byType
	}
	for _, existing := range byType[rr.Type] {
		if existing.Class == rr.Class && existing.Data.String() == rr.Data.String() {
			return nil
		}
	}
	byType[rr.Type] = append(byType[rr.Type], rr)
	return nil
}

func (z *linearZone) Remove(name dnswire.Name, typ dnswire.Type) {
	byType, ok := z.records[name]
	if !ok {
		return
	}
	if typ == dnswire.TypeANY {
		delete(z.records, name)
		return
	}
	delete(byType, typ)
	if len(byType) == 0 {
		delete(z.records, name)
	}
}

func (z *linearZone) Names() []dnswire.Name {
	names := make([]dnswire.Name, 0, len(z.records))
	for n := range z.records {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return names[i].Compare(names[j]) < 0 })
	return names
}

// sortedTypes returns an owner's records type by type, each RRset sorted
// by rdata.
func sortedTypes(byType map[dnswire.Type][]dnswire.RR) []dnswire.RR {
	types := make([]dnswire.Type, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	var out []dnswire.RR
	for _, t := range types {
		rrs := append([]dnswire.RR(nil), byType[t]...)
		sort.Slice(rrs, func(i, j int) bool { return rrs[i].Data.String() < rrs[j].Data.String() })
		out = append(out, rrs...)
	}
	return out
}

func (z *linearZone) Records() []dnswire.RR {
	var out []dnswire.RR
	for _, n := range z.Names() {
		out = append(out, sortedTypes(z.records[n])...)
	}
	return out
}

func (z *linearZone) LookupAll(name dnswire.Name) []dnswire.RR {
	return sortedTypes(z.records[name])
}

func (z *linearZone) Delegations() []dnswire.Name {
	var out []dnswire.Name
	for _, n := range z.Names() {
		if n != z.origin && len(z.records[n][dnswire.TypeNS]) > 0 {
			out = append(out, n)
		}
	}
	return out
}

func (z *linearZone) hasDescendants(name dnswire.Name) bool {
	for n := range z.records {
		if n != name && n.IsSubdomainOf(name) {
			return true
		}
	}
	return false
}

func (z *linearZone) NSECCovering(name dnswire.Name) (dnswire.RR, bool) {
	type link struct {
		owner dnswire.Name
		rr    dnswire.RR
	}
	var chain []link
	for n, byType := range z.records {
		if rrs := byType[dnswire.TypeNSEC]; len(rrs) > 0 {
			chain = append(chain, link{owner: n, rr: rrs[0]})
		}
	}
	if len(chain) == 0 {
		return dnswire.RR{}, false
	}
	sort.Slice(chain, func(i, j int) bool { return chain[i].owner.Compare(chain[j].owner) < 0 })
	idx := sort.Search(len(chain), func(i int) bool {
		return chain[i].owner.Compare(name) > 0
	}) - 1
	if idx < 0 {
		idx = len(chain) - 1
	}
	return chain[idx].rr, true
}

func (z *linearZone) Query(name dnswire.Name, typ dnswire.Type) Answer {
	if !name.IsSubdomainOf(z.origin) {
		return Answer{Rcode: dnswire.RcodeRefused}
	}
	for n := name; n != z.origin && !n.IsRoot(); n = n.Parent() {
		if len(z.records[n][dnswire.TypeNS]) > 0 {
			if n == name && typ == dnswire.TypeDS {
				continue
			}
			return z.referral(n)
		}
	}
	soa := append([]dnswire.RR(nil), z.records[z.origin][dnswire.TypeSOA]...)
	if byType, exists := z.records[name]; exists {
		if rrs := byType[typ]; len(rrs) > 0 {
			return Answer{Rcode: dnswire.RcodeSuccess, Authoritative: true, Answer: append([]dnswire.RR(nil), rrs...)}
		}
		if typ == dnswire.TypeANY {
			return Answer{Rcode: dnswire.RcodeSuccess, Authoritative: true, Answer: z.LookupAll(name)}
		}
		if rrs := byType[dnswire.TypeCNAME]; len(rrs) > 0 {
			return Answer{Rcode: dnswire.RcodeSuccess, Authoritative: true, Answer: append([]dnswire.RR(nil), rrs...)}
		}
		return Answer{Rcode: dnswire.RcodeSuccess, Authoritative: true, Authority: soa}
	}
	if z.hasDescendants(name) {
		return Answer{Rcode: dnswire.RcodeSuccess, Authoritative: true, Authority: soa}
	}
	return Answer{Rcode: dnswire.RcodeNXDomain, Authoritative: true, Authority: soa}
}

func (z *linearZone) referral(cut dnswire.Name) Answer {
	ans := Answer{Rcode: dnswire.RcodeSuccess}
	nsSet := z.records[cut][dnswire.TypeNS]
	ans.Authority = append(ans.Authority, nsSet...)
	ans.Authority = append(ans.Authority, z.records[cut][dnswire.TypeDS]...)
	for _, ns := range nsSet {
		host := ns.Data.(dnswire.NS).Host
		if !host.IsSubdomainOf(z.origin) {
			continue
		}
		ans.Additional = append(ans.Additional, z.records[host][dnswire.TypeA]...)
		ans.Additional = append(ans.Additional, z.records[host][dnswire.TypeAAAA]...)
	}
	return ans
}
