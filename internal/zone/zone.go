// Package zone implements DNS zones: an in-memory store of resource
// records with the authoritative-lookup operations a nameserver needs
// (answers, referrals with glue, NXDOMAIN determination), plus an RFC 1035
// §5 master-file parser and serializer and a compressed container format.
//
// The root zone — the object this whole system is about — is just a Zone
// whose origin is the root name.
package zone

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"rootless/internal/dnswire"
)

// Zone is a set of resource records rooted at Origin, held in canonical
// order: owners as in RFC 4034 §6.1, each owner's RRsets by type, each
// RRset's records by rdata presentation. Walks never sort, and the
// empty-non-terminal and NSEC-cover tests are binary searches. Stored
// RRsets are never written again, so Clone and Apply share them.
//
// A Zone is safe for concurrent readers once built; mutation (Add/Remove)
// is guarded internally, so a Zone may also be updated while being served.
type Zone struct {
	Origin dnswire.Name

	mu sync.RWMutex
	// records maps each owner to its RRsets, sorted by type.
	records map[dnswire.Name][]rrset
	// owners lists every owner name in canonical order.
	owners []dnswire.Name
	// nsecOwners lists, in canonical order, the owners carrying an NSEC
	// RRset: the denial chain NSECCovering searches.
	nsecOwners []dnswire.Name
}

// rrset is one stored RRset: the records of one type at an owner, all of
// one class, sorted by rdata presentation.
type rrset struct {
	typ dnswire.Type
	rrs []dnswire.RR
}

// RRset is one RRset of a zone, as returned by RRsets.
type RRset struct {
	Key dnswire.RRsetKey
	RRs []dnswire.RR
}

// Change is the difference at one RRset between two zone versions: Diff
// fills Old and New with the whole RRset on each side (empty where it is
// absent); Apply reads a Change as a patch.
type Change struct {
	Key      dnswire.RRsetKey
	Old, New []dnswire.RR
}

// New returns an empty zone for the given origin.
func New(origin dnswire.Name) *Zone {
	return &Zone{Origin: origin, records: make(map[dnswire.Name][]rrset)}
}

// Add inserts a record. Records outside the zone's origin are rejected, as
// is a record whose class differs from the rest of its RRset. Duplicate
// records (same name, type, class, rdata) are ignored.
func (z *Zone) Add(rr dnswire.RR) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.patch(rr.Key(), nil, []dnswire.RR{rr})
}

// Remove deletes all records of the given name and type. A type of
// dnswire.TypeANY removes every record at the name.
func (z *Zone) Remove(name dnswire.Name, typ dnswire.Type) {
	z.mu.Lock()
	defer z.mu.Unlock()
	if typ != dnswire.TypeANY {
		z.put(name, typ, nil)
		return
	}
	for _, s := range z.records[name] {
		z.put(name, s.typ, nil)
	}
}

// Apply returns z with the changes applied in order, as a new zone that
// shares every untouched RRset with z. Each change removes Old's records
// from the RRset at Key (matched by class and rdata), then adds New's,
// which must all carry Key.
func (z *Zone) Apply(changes []Change) (*Zone, error) {
	next := z.Clone()
	for _, c := range changes {
		if err := next.patch(c.Key, c.Old, c.New); err != nil {
			return nil, err
		}
	}
	return next, nil
}

// AddChanges groups records into one insert-only Change per RRset, in
// first-seen order: the Apply form of adding each record.
func AddChanges(rrs []dnswire.RR) []Change {
	order, sets := dnswire.GroupRRsets(rrs)
	changes := make([]Change, len(order))
	for i, key := range order {
		changes[i] = Change{Key: key, New: sets[key]}
	}
	return changes
}

// Clone returns a copy of the zone that shares its RRsets with z.
func (z *Zone) Clone() *Zone {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return &Zone{
		Origin:     z.Origin,
		records:    maps.Clone(z.records),
		owners:     slices.Clone(z.owners),
		nsecOwners: slices.Clone(z.nsecOwners),
	}
}

// patch applies one Change, passed by parts so Add's one-record slice
// stays on the stack; the caller holds the write lock or owns z.
func (z *Zone) patch(key dnswire.RRsetKey, remove, add []dnswire.RR) error {
	cur := z.rrs(key.Name, key.Type)
	next := make([]dnswire.RR, 0, len(cur)+len(add))
	for _, rr := range cur {
		if len(remove) == 0 || !slices.ContainsFunc(remove, func(o dnswire.RR) bool {
			return o.Class == rr.Class && o.Data.String() == rr.Data.String()
		}) {
			next = append(next, rr)
		}
	}
	for _, rr := range add {
		if !rr.Name.IsSubdomainOf(z.Origin) {
			return fmt.Errorf("zone: record %s outside origin %s", rr.Name, z.Origin)
		}
		// An RRset holds one name, type and class.
		if rr.Key() != key || len(next) > 0 && next[0].Class != rr.Class {
			return fmt.Errorf("zone: record %s does not belong in RRset %s/%s/%s", rr, key.Name, key.Class, key.Type)
		}
		if len(next) == 0 {
			next = append(next, rr)
			continue
		}
		data := rr.Data.String()
		if i := sort.Search(len(next), func(i int) bool { return next[i].Data.String() >= data }); i == len(next) || next[i].Data.String() != data {
			next = slices.Insert(next, i, rr)
		}
	}
	z.put(key.Name, key.Type, next)
	return nil
}

// put stores a fresh slice as the (name, typ) RRset, or deletes the RRset
// when rrs is empty, keeping the owner and NSEC indexes in step; the
// caller holds the write lock or owns z.
func (z *Zone) put(name dnswire.Name, typ dnswire.Type, rrs []dnswire.RR) {
	sets := z.records[name]
	i, found := findType(sets, typ)
	var next []rrset
	switch {
	case found && len(rrs) == 0:
		next = slices.Delete(slices.Clone(sets), i, i+1)
	case found:
		next = slices.Clone(sets)
		next[i].rrs = rrs
	case len(rrs) == 0:
		return
	default:
		next = slices.Insert(slices.Clip(sets), i, rrset{typ: typ, rrs: rrs})
	}
	if typ == dnswire.TypeNSEC {
		z.nsecOwners = reindex(z.nsecOwners, name, found, len(rrs) > 0)
	}
	z.owners = reindex(z.owners, name, len(sets) > 0, len(next) > 0)
	if len(next) == 0 {
		delete(z.records, name)
	} else {
		z.records[name] = next
	}
}

func findType(sets []rrset, typ dnswire.Type) (int, bool) {
	return slices.BinarySearchFunc(sets, typ, func(s rrset, t dnswire.Type) int { return cmp.Compare(s.typ, t) })
}

// typeRRs returns an owner's stored records of one type, or nil; callers
// must not modify them.
func typeRRs(sets []rrset, typ dnswire.Type) []dnswire.RR {
	if i, ok := findType(sets, typ); ok {
		return sets[i].rrs
	}
	return nil
}

// rrs is typeRRs at name; the caller holds the lock.
func (z *Zone) rrs(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	return typeRRs(z.records[name], typ)
}

// reindex inserts name into or deletes it from a canonical-order list as
// it gains (has) or loses (had) its entry. A name that sorts last is
// appended without a search, as every owner of a zone loaded in order is.
func reindex(names []dnswire.Name, name dnswire.Name, had, has bool) []dnswire.Name {
	if had == has {
		return names
	}
	i := len(names)
	if i > 0 && names[i-1].Compare(name) >= 0 {
		i = sort.Search(len(names), func(i int) bool { return names[i].Compare(name) >= 0 })
	}
	if has {
		return slices.Insert(names, i, name)
	}
	for i < len(names)-1 && names[i] != name {
		i++ // past differently spelled names that compare equal
	}
	return slices.Delete(names, i, i+1)
}

// Lookup returns the RRset for (name, type), or nil.
func (z *Zone) Lookup(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return slices.Clone(z.rrs(name, typ))
}

// LookupAll returns every record at name, in type order.
func (z *Zone) LookupAll(name dnswire.Name) []dnswire.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return flatten(z.records[name])
}

// flatten copies an owner's records out in type order.
func flatten(sets []rrset) []dnswire.RR {
	var out []dnswire.RR
	for _, s := range sets {
		out = append(out, s.rrs...)
	}
	return out
}

// HasName reports whether any record exists at name.
func (z *Zone) HasName(name dnswire.Name) bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.records[name]) > 0
}

// SOA returns the zone's SOA record, or false if absent.
func (z *Zone) SOA() (dnswire.RR, bool) {
	rrs := z.Lookup(z.Origin, dnswire.TypeSOA)
	if len(rrs) == 0 {
		return dnswire.RR{}, false
	}
	return rrs[0], true
}

// Serial returns the zone's SOA serial, or 0 if there is no SOA.
func (z *Zone) Serial() uint32 {
	if soa, ok := z.SOA(); ok {
		return soa.Data.(dnswire.SOA).Serial
	}
	return 0
}

// Names returns every owner name in the zone in DNSSEC canonical order.
func (z *Zone) Names() []dnswire.Name {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return slices.Clone(z.owners)
}

// Records returns every record in the zone in canonical name order with
// deterministic within-name ordering (by type, then rdata).
func (z *Zone) Records() []dnswire.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []dnswire.RR
	for _, n := range z.owners {
		for _, s := range z.records[n] {
			out = append(out, s.rrs...)
		}
	}
	return out
}

// RRsets returns every RRset in the order of Records, as a copy.
func (z *Zone) RRsets() []RRset {
	recs := z.Records()
	var out []RRset
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].Name == recs[i].Name && recs[j].Type == recs[i].Type {
			j++
		}
		out = append(out, RRset{Key: recs[i].Key(), RRs: recs[i:j:j]})
		i = j
	}
	return out
}

// Diff merges the canonical walks of old and new into the RRsets that
// differ (in records or TTLs), in canonical order.
func Diff(old, new *Zone) []Change {
	a, b := old.RRsets(), new.RRsets()
	var out []Change
	for len(a) > 0 || len(b) > 0 {
		c := 1
		if len(b) == 0 {
			c = -1
		} else if len(a) > 0 {
			c = compareKeys(a[0].Key, b[0].Key)
		}
		switch {
		case c < 0:
			out = append(out, Change{Key: a[0].Key, Old: a[0].RRs})
			a = a[1:]
		case c > 0:
			out = append(out, Change{Key: b[0].Key, New: b[0].RRs})
			b = b[1:]
		default:
			if !sameRecords(a[0].RRs, b[0].RRs) {
				out = append(out, Change{Key: a[0].Key, Old: a[0].RRs, New: b[0].RRs})
			}
			a, b = a[1:], b[1:]
		}
	}
	return out
}

// compareKeys orders RRset keys as the canonical walk emits them.
func compareKeys(a, b dnswire.RRsetKey) int {
	if a.Name != b.Name {
		return a.Name.Compare(b.Name)
	}
	return cmp.Or(cmp.Compare(a.Type, b.Type), cmp.Compare(a.Class, b.Class))
}

// sameRecords compares two rdata-sorted records of one RRset.
func sameRecords(a, b []dnswire.RR) bool {
	return slices.EqualFunc(a, b, func(x, y dnswire.RR) bool {
		return x.TTL == y.TTL && x.Data.String() == y.Data.String()
	})
}

// Removed returns the records of Old that New does not hold, TTL and
// rdata both counting.
func (c Change) Removed() []dnswire.RR { return missing(c.Old, c.New) }

// Added returns the records of New that Old does not hold.
func (c Change) Added() []dnswire.RR { return missing(c.New, c.Old) }

func missing(from, in []dnswire.RR) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range from {
		s := rr.String()
		if !slices.ContainsFunc(in, func(o dnswire.RR) bool { return o.String() == s }) {
			out = append(out, rr)
		}
	}
	return out
}

// Len returns the number of records in the zone.
func (z *Zone) Len() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, sets := range z.records {
		for _, s := range sets {
			n += len(s.rrs)
		}
	}
	return n
}

// RRsetCount returns the number of distinct (name, type) RRsets.
func (z *Zone) RRsetCount() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, sets := range z.records {
		n += len(sets)
	}
	return n
}

// Delegations returns the names of all zone cuts in canonical order.
func (z *Zone) Delegations() []dnswire.Name {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []dnswire.Name
	for _, n := range z.owners {
		if n != z.Origin && z.rrs(n, dnswire.TypeNS) != nil {
			out = append(out, n)
		}
	}
	return out
}

// Answer is the result of an authoritative lookup in a zone.
type Answer struct {
	// Rcode is NOERROR or NXDOMAIN.
	Rcode dnswire.Rcode
	// Authoritative is false for referrals.
	Authoritative bool
	// Answer holds the matching RRset (possibly empty for NODATA).
	Answer []dnswire.RR
	// Authority holds the delegation NS set (referral), or the SOA
	// (NXDOMAIN / NODATA).
	Authority []dnswire.RR
	// Additional holds glue addresses for authority-section nameservers.
	Additional []dnswire.RR
}

// Query performs the authoritative lookup algorithm (RFC 1034 §4.3.2,
// restricted to the in-zone cases: answer, referral, NODATA, NXDOMAIN).
func (z *Zone) Query(name dnswire.Name, typ dnswire.Type) Answer {
	if !name.IsSubdomainOf(z.Origin) {
		return Answer{Rcode: dnswire.RcodeRefused}
	}

	// Walk from the query name up toward the origin looking for a zone cut
	// strictly between the origin and the name. A cut at the query name
	// itself is a referral unless the query is for DS (which the parent
	// answers authoritatively).
	if cut, ok := z.findCut(name, typ); ok {
		return z.referral(cut)
	}

	z.mu.RLock()
	sets, exists := z.records[name]
	z.mu.RUnlock()

	rcode := dnswire.RcodeSuccess
	if exists {
		answer := slices.Clone(typeRRs(sets, typ))
		if answer == nil && typ == dnswire.TypeANY {
			answer = flatten(sets)
		}
		if answer == nil {
			// CNAME at the name answers any type except CNAME itself.
			answer = slices.Clone(typeRRs(sets, dnswire.TypeCNAME))
		}
		if answer != nil {
			return Answer{Rcode: rcode, Authoritative: true, Answer: answer}
		}
	} else if !z.hasDescendants(name) {
		// A missing name with descendants is an empty non-terminal:
		// NODATA rather than NXDOMAIN.
		rcode = dnswire.RcodeNXDomain
	}
	// NODATA or NXDOMAIN, with the SOA for negative caching.
	return Answer{Rcode: rcode, Authoritative: true, Authority: z.soaAuthority()}
}

// findCut locates the closest delegation at-or-above name, excluding the
// origin. A cut exactly at name does not count for DS queries.
func (z *Zone) findCut(name dnswire.Name, typ dnswire.Type) (dnswire.Name, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	for n := name; n != z.Origin && !n.IsRoot(); n = n.Parent() {
		if z.rrs(n, dnswire.TypeNS) != nil {
			if n == name && typ == dnswire.TypeDS {
				continue
			}
			return n, true
		}
	}
	return "", false
}

func (z *Zone) referral(cut dnswire.Name) Answer {
	z.mu.RLock()
	defer z.mu.RUnlock()
	ans := Answer{Rcode: dnswire.RcodeSuccess}
	nsSet := z.rrs(cut, dnswire.TypeNS)
	ans.Authority = append(ans.Authority, nsSet...)
	// DS records live at the cut in the parent and accompany referrals.
	ans.Authority = append(ans.Authority, z.rrs(cut, dnswire.TypeDS)...)
	for _, ns := range nsSet {
		host := ns.Data.(dnswire.NS).Host
		if !host.IsSubdomainOf(z.Origin) {
			continue
		}
		ans.Additional = append(ans.Additional, z.rrs(host, dnswire.TypeA)...)
		ans.Additional = append(ans.Additional, z.rrs(host, dnswire.TypeAAAA)...)
	}
	return ans
}

func (z *Zone) soaAuthority() []dnswire.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return slices.Clone(z.rrs(z.Origin, dnswire.TypeSOA))
}

// hasDescendants reports whether any stored name is strictly below name.
// Descendants sort right after name in canonical order, so only the
// successor needs checking.
func (z *Zone) hasDescendants(name dnswire.Name) bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	i := sort.Search(len(z.owners), func(i int) bool { return z.owners[i].Compare(name) > 0 })
	return i < len(z.owners) && z.owners[i].IsSubdomainOf(name)
}

// SignaturesFor returns the RRSIG records at name covering the given
// type, for building DNSSEC-aware responses.
func (z *Zone) SignaturesFor(name dnswire.Name, covered dnswire.Type) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range z.Lookup(name, dnswire.TypeRRSIG) {
		if sig, ok := rr.Data.(dnswire.RRSIG); ok && sig.TypeCovered == covered {
			out = append(out, rr)
		}
	}
	return out
}

// NSECCovering returns the NSEC record whose owner-to-next span covers
// name in canonical order (the authenticated denial proof for name), or
// false if the zone carries no NSEC chain. A name that owns an NSEC is
// covered by its own record.
func (z *Zone) NSECCovering(name dnswire.Name) (dnswire.RR, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	chain := z.nsecOwners
	if len(chain) == 0 {
		return dnswire.RR{}, false
	}
	// Find the last owner <= name; it covers the span up to the next
	// owner. Names before the first owner wrap around to the last link.
	idx := sort.Search(len(chain), func(i int) bool { return chain[i].Compare(name) > 0 }) - 1
	if idx < 0 {
		idx = len(chain) - 1
	}
	return z.rrs(chain[idx], dnswire.TypeNSEC)[0], true
}
