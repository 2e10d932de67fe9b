package main

import (
	"rootless/internal/dnswire"
)

// Oracle failure classes. A query that gets no answer within the
// timeout fails as failTimeout; one whose answer fails a check fails as
// the first check it fails.
const (
	failTimeout     = "timeout"
	failUnparseable = "unparseable"
	failHeader      = "header"   // QR clear or wrong opcode
	failQuestion    = "question" // question section differs from the query
	failRcode       = "rcode"    // rcode wrong for the query's class
	failReferral    = "not_referral"
	failOPT         = "opt_not_echoed"
	failRRSIG       = "no_rrsig"
	failNSEC        = "no_nsec"
	failAnswer      = "no_a_record"
)

// checkCommon verifies what every answer shares: a response to this
// query (the ID was matched by the generator).
func checkCommon(m *dnswire.Message, q query) string {
	if !m.Response || m.Opcode != dnswire.OpcodeQuery {
		return failHeader
	}
	if len(m.Questions) != 1 || m.Questions[0].Name != q.Name ||
		m.Questions[0].Type != q.Type || m.Questions[0].Class != dnswire.ClassINET {
		return failQuestion
	}
	return ""
}

// checkAuth is the oracle for authd answers: NXDOMAIN for junk, an NS
// referral (or, for a TLD's own DS, an answer) for a valid name; OPT
// echoed with the query's DO bit; with DO, RRSIGs, plus an NSEC on
// denials. A truncated answer (TC set) must get header, question and
// rcode right; the records it dropped are not checked.
func checkAuth(m *dnswire.Message, q query) string {
	if f := checkCommon(m, q); f != "" {
		return f
	}
	if q.Junk {
		if m.Rcode != dnswire.RcodeNXDomain {
			return failRcode
		}
	} else if m.Rcode != dnswire.RcodeSuccess {
		return failRcode
	}
	opt, _, do := m.EDNS()
	if opt == nil || do != q.DO {
		return failOPT
	}
	if m.Truncated {
		return ""
	}
	if !q.Junk && len(m.Answers) == 0 && !hasRR(m.Authority, q.Name.TLD(), dnswire.TypeNS) {
		return failReferral
	}
	if !q.DO {
		return ""
	}
	if !hasType(m.Answers, dnswire.TypeRRSIG) && !hasType(m.Authority, dnswire.TypeRRSIG) {
		return failRRSIG
	}
	denial := m.Rcode == dnswire.RcodeNXDomain || (len(m.Answers) == 0 && m.Authoritative)
	if denial && !hasType(m.Authority, dnswire.TypeNSEC) {
		return failNSEC
	}
	return ""
}

// checkResolver is the oracle for the resolver harness: NXDOMAIN for
// junk, NOERROR for a valid name, with an A record for the name when
// the query asked for A (the harness's TLD servers answer A with a
// synthetic address and every other type with NODATA).
func checkResolver(m *dnswire.Message, q query) string {
	if f := checkCommon(m, q); f != "" {
		return f
	}
	if q.Junk {
		if m.Rcode != dnswire.RcodeNXDomain {
			return failRcode
		}
		return ""
	}
	if m.Rcode != dnswire.RcodeSuccess {
		return failRcode
	}
	if q.Type == dnswire.TypeA && !hasRR(m.Answers, q.Name, dnswire.TypeA) {
		return failAnswer
	}
	return ""
}

func hasRR(rrs []dnswire.RR, name dnswire.Name, typ dnswire.Type) bool {
	for _, rr := range rrs {
		if rr.Name == name && rr.Type == typ {
			return true
		}
	}
	return false
}

func hasType(rrs []dnswire.RR, typ dnswire.Type) bool {
	for _, rr := range rrs {
		if rr.Type == typ {
			return true
		}
	}
	return false
}
