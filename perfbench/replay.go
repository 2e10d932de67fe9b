package main

import (
	"encoding/binary"
	"net/netip"
	"runtime"
	"time"

	"rootless/internal/authserver"
	"rootless/internal/dnswire"
	"rootless/internal/obs/traffic"
	"rootless/internal/overload"
	"rootless/internal/resolver"
	"rootless/internal/zone"
)

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetrics is every per-layer metric a traced run prints, in order.
// A metric a workload's server does not have (the resolver's counters
// on authd, say) reads 0.
var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"udpengine.msgs_per_read", "ratio"},
		{"udpengine.rxq_drops", "count"},
		{"udpengine.handler_drops", "count"},
		{"authserver.packed_hit_ratio", "ratio"},
		{"authserver.packs_per_query", "ratio"},
		{"authserver.truncated_ratio", "ratio"},
		{"authserver.shed", "count"},
		{"resolver.upstream_per_query", "ratio"},
		{"resolver.cache_answer_ratio", "ratio"},
		{"resolver.local_consults_per_query", "ratio"},
		{"resolver.nxdomain_cut_hits", "count"},
		{"resolver.coalesced", "count"},
		{"resolver.shed", "count"},
		{"cache.entries", "count"},
		{"runtime.gc_per_kquery", "count"},
		{"runtime.heap_mb", "MiB"},
		{"gen.late_p99_ms", "ms"},
		{"gen.ceiling_qps", "1/s"},
	}
	timed := func(stage string, classes ...string) {
		if len(classes) == 0 {
			classes = []string{""}
		}
		for _, c := range classes {
			key := stage
			if c != "" {
				key += "." + c
			}
			ms = append(ms, layerMetric{key + ".mean", "us"}, layerMetric{key + ".p99", "us"})
		}
	}
	timed("dnswire.decode_us")
	timed("dnswire.encode_us")
	ms = append(ms, layerMetric{"dnswire.response_bytes.mean", "bytes"})
	timed("traffic.observe_us")
	timed("overload.admit_us")
	timed("zone.query_us", "valid", "junk")
	timed("zone.nsec_covering_us", "valid", "junk")
	timed("zone.signatures_for_us", "valid", "junk")
	ms = append(ms, layerMetric{"authserver.serve_wire_us.mean", "us"})
	timed("authserver.serve_wire_us", "valid_do", "valid_nodo", "junk_do", "junk_nodo", "repeat_do", "repeat_nodo")
	ms = append(ms, layerMetric{"resolver.resolve_us.mean", "us"})
	timed("resolver.resolve_us", "valid", "junk", "repeat")
	timed("resolver.upstream_us")
	timed("cache.get_us")
	ms = append(ms,
		layerMetric{"ledger.closure", "ratio"},
		layerMetric{"ledger.unattributed_us", "us"},
		layerMetric{"trace.overhead", "ratio"},
	)
	return ms
}()

// Span names. Stage spans are children of a per-query handler span.
const (
	spanAuthHandler     = "authserver.handler"
	spanResolverHandler = "resolver.handler"
	spanDecode          = "dnswire.decode"
	spanEncode          = "dnswire.encode"
	spanObserve         = "traffic.observe"
	spanAdmit           = "overload.admit"
	spanZoneQuery       = "zone.query"
	spanNSEC            = "zone.nsec_covering"
	spanSigs            = "zone.signatures_for"
	spanResolve         = "resolver.resolve"
	spanUpstream        = "resolver.upstream"
	spanCacheGet        = "cache.get"
)

// usSamples collects microsecond samples by metric key.
type usSamples map[string][]float64

func (s usSamples) add(key string, d time.Duration) {
	s[key] = append(s[key], float64(d)/1e3)
}

// emit writes key.mean and key.p99 into m.
func (s usSamples) emit(m map[string]float64, key string) {
	v := s[key]
	m[key+".mean"] = mean(v)
	m[key+".p99"] = 0
	if len(v) > 0 {
		m[key+".p99"] = quantile(v, 0.99)
	}
}

// replayResult is what a traced replay adds to the per-layer metrics.
type replayResult struct {
	metrics   map[string]float64
	handlerUS float64 // mean handler time per query, with no spans
}

// stageSelf sums each query's stage self times by span name, skipping
// the handler (root) spans. The result is indexed by query.
func stageSelf(rec *recorder, nQueries int) []map[string]time.Duration {
	self := selfTimes(rec.spans)
	out := make([]map[string]time.Duration, nQueries)
	for i := range out {
		out[i] = map[string]time.Duration{}
	}
	for i, s := range rec.spans {
		if s.Parent < 0 {
			continue
		}
		out[s.Query][s.Name] += time.Duration(self[i])
	}
	return out
}

// newAuthServer configures an authserver.Server the way cmd/authd does
// with its default flags.
func newAuthServer(z *zone.Zone) *authserver.Server {
	srv := authserver.New(z)
	srv.EnableIXFR(8)
	srv.SetOverload(authserver.OverloadConfig{MaxInflight: 512, QueueDeadline: 20 * time.Millisecond, RRLSlip: 2})
	srv.SetTraffic(traffic.NewAnalyzer(traffic.NewTLDSet(z.Delegations()), 16))
	return srv
}

// stagedAuth replays authd's per-query path one public call at a time:
// decode, traffic observation, admission, then either a copy of the
// packed answer or zone lookup, DNSSEC attach and encode. Its answer
// cache is an unbounded map keyed like authd's.
type stagedAuth struct {
	z     *zone.Zone
	an    *traffic.Analyzer
	gate  *overload.Gate
	cache map[cacheKey][]byte
	out   []byte
}

func newStagedAuth(z *zone.Zone) *stagedAuth {
	return &stagedAuth{
		z:     z,
		an:    traffic.NewAnalyzer(traffic.NewTLDSet(z.Delegations()), 16),
		gate:  overload.NewGate(512, 20*time.Millisecond),
		cache: map[cacheKey][]byte{},
	}
}

// handle answers wire, recording spans under query qi when rec is
// non-nil, and returns the response size.
func (s *stagedAuth) handle(rec *recorder, qi int32, wire []byte, from netip.Addr) int {
	root := int32(-1)
	if rec != nil {
		root = rec.begin(qi, spanAuthHandler, -1)
		defer rec.end(root)
	}
	begin := func(name string) int32 {
		if rec == nil {
			return -1
		}
		return rec.begin(qi, name, root)
	}
	end := func(id int32) {
		if id >= 0 {
			rec.end(id)
		}
	}

	sp := begin(spanDecode)
	var m dnswire.Message
	err := m.UnpackShared(wire)
	end(sp)
	if err != nil || len(m.Questions) != 1 {
		return 0
	}
	qq := m.Questions[0]
	_, size, do := m.EDNS()

	sp = begin(spanObserve)
	s.an.Observe(qq.Name, qq.Type)
	s.an.ObserveClient(from)
	end(sp)

	sp = begin(spanAdmit)
	admitted := s.gate.Acquire()
	end(sp)

	key := cacheKey{qq.Name, qq.Type, size > 0, do}
	if cached, ok := s.cache[key]; ok {
		sp = begin(spanEncode)
		s.out = append(s.out[:0], cached...)
		binary.BigEndian.PutUint16(s.out, m.ID)
		end(sp)
	} else {
		sp = begin(spanZoneQuery)
		ans := s.z.Query(qq.Name, qq.Type)
		end(sp)
		resp := &dnswire.Message{
			ID: m.ID, Response: true, Opcode: m.Opcode, Questions: m.Questions,
			Rcode: ans.Rcode, Authoritative: ans.Authoritative,
			Answers: ans.Answer, Authority: ans.Authority, Additional: ans.Additional,
		}
		if size > 0 {
			if do {
				s.addDNSSEC(begin, end, resp, qq.Name)
			}
			resp.SetEDNS(dnswire.DefaultEDNSSize, do)
		}
		sp = begin(spanEncode)
		s.out, err = resp.AppendPack(s.out[:0])
		end(sp)
		if err == nil {
			s.cache[key] = append([]byte(nil), s.out...)
		}
	}

	if admitted {
		sp = begin(spanAdmit)
		s.gate.Release()
		end(sp)
	}
	return len(s.out)
}

// addDNSSEC makes the zone calls authserver's DNSSEC attach makes:
// signatures for each RRset in the answer and authority sections, and
// for a denial the covering NSEC with its signatures.
func (s *stagedAuth) addDNSSEC(begin func(string) int32, end func(int32), resp *dnswire.Message, qname dnswire.Name) {
	signFor := func(section []dnswire.RR) []dnswire.RR {
		keys, _ := dnswire.GroupRRsets(section)
		var sigs []dnswire.RR
		for _, k := range keys {
			if k.Type == dnswire.TypeRRSIG {
				continue
			}
			sp := begin(spanSigs)
			sigs = append(sigs, s.z.SignaturesFor(k.Name, k.Type)...)
			end(sp)
		}
		return sigs
	}
	resp.Answers = append(resp.Answers, signFor(resp.Answers)...)
	resp.Authority = append(resp.Authority, signFor(resp.Authority)...)
	if resp.Rcode != dnswire.RcodeNXDomain && !(resp.Rcode == dnswire.RcodeSuccess && len(resp.Answers) == 0) {
		return
	}
	sp := begin(spanNSEC)
	nsec, ok := s.z.NSECCovering(qname)
	end(sp)
	if !ok {
		return
	}
	resp.Authority = append(resp.Authority, nsec)
	sp = begin(spanSigs)
	resp.Authority = append(resp.Authority, s.z.SignaturesFor(nsec.Name, dnswire.TypeNSEC)...)
	end(sp)
}

// replayAuth replays warm (untimed) and then timed through three fresh
// copies of authd's path: authserver.ServeWire for the handler total,
// the staged path without spans, and the staged path with spans. The
// spans are written to spansPath.
func replayAuth(zonePath string, warm, timed []query, from netip.Addr, spansPath string) (replayResult, error) {
	z, err := loadZoneFile(zonePath)
	if err != nil {
		return replayResult{}, err
	}
	warmWires, err := packQueries(warm)
	if err != nil {
		return replayResult{}, err
	}
	wires, err := packQueries(timed)
	if err != nil {
		return replayResult{}, err
	}
	m := map[string]float64{}
	us := usSamples{}

	// Handler total: ServeWire on a fresh server configured like authd.
	srv := newAuthServer(z)
	out := make([]byte, 0, 64<<10)
	for _, w := range warmWires {
		out = srv.ServeWire(w, from, out[:0])
	}
	runtime.GC()
	serveWire := make([]time.Duration, len(wires))
	var bytes []float64
	for i, w := range wires {
		t := time.Now()
		out = srv.ServeWire(w, from, out[:0])
		serveWire[i] = time.Since(t)
		bytes = append(bytes, float64(len(out)))
		us.add("authserver.serve_wire_us", serveWire[i])
		us.add("authserver.serve_wire_us."+timed[i].class(), serveWire[i])
	}
	m["dnswire.response_bytes.mean"] = mean(bytes)

	// Staged path without spans, then with spans, each on fresh state.
	stagedPass := func(rec *recorder) time.Duration {
		st := newStagedAuth(z)
		for _, w := range warmWires {
			st.handle(nil, 0, w, from)
		}
		runtime.GC()
		var total time.Duration
		for i, w := range wires {
			t := time.Now()
			st.handle(rec, int32(i), w, from)
			total += time.Since(t)
		}
		return total
	}
	plain := stagedPass(nil)
	rec := newRecorder(len(wires) * 8)
	traced := stagedPass(rec)
	m["trace.overhead"] = ratio(float64(traced), float64(plain))

	var stages, handler time.Duration
	for i, st := range stageSelf(rec, len(wires)) {
		q := timed[i]
		tld := "valid"
		if q.Junk {
			tld = "junk"
		}
		for name, d := range st {
			stages += d
			switch name {
			case spanZoneQuery, spanNSEC, spanSigs:
				us.add(name+"_us."+tld, d)
			default:
				us.add(name+"_us", d)
			}
		}
		handler += serveWire[i]
	}
	m["ledger.closure"] = ratio(float64(stages), float64(handler))
	for _, k := range []string{"dnswire.decode_us", "dnswire.encode_us", "traffic.observe_us", "overload.admit_us",
		"zone.query_us.valid", "zone.query_us.junk", "zone.nsec_covering_us.valid", "zone.nsec_covering_us.junk",
		"zone.signatures_for_us.valid", "zone.signatures_for_us.junk", "authserver.serve_wire_us"} {
		us.emit(m, k)
	}
	for _, c := range []string{"valid_do", "valid_nodo", "junk_do", "junk_nodo", "repeat_do", "repeat_nodo"} {
		us.emit(m, "authserver.serve_wire_us."+c)
	}
	if err := rec.write(spansPath); err != nil {
		return replayResult{}, err
	}
	return replayResult{metrics: m, handlerUS: m["authserver.serve_wire_us.mean"]}, nil
}

// spanTransport wraps the harness transport, recording each exchange as
// a resolver.upstream span under the current resolve span.
type spanTransport struct {
	inner  *memTransport
	rec    *recorder
	qi     int32
	parent int32
}

func (t *spanTransport) Exchange(dst netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	if t.rec != nil {
		id := t.rec.begin(t.qi, spanUpstream, t.parent)
		defer t.rec.end(id)
	}
	return t.inner.Exchange(dst, q)
}

// respond builds the resolver server's reply to q from a resolution.
func respond(q *dnswire.Message, res *resolver.Result, err error) *dnswire.Message {
	resp := &dnswire.Message{ID: q.ID, Response: true, Opcode: q.Opcode, RecursionDesired: q.RecursionDesired,
		RecursionAvailable: true, Questions: q.Questions}
	if err != nil {
		resp.Rcode = dnswire.RcodeServFail
		return resp
	}
	resp.Rcode = res.Rcode
	resp.Answers = res.Answers
	resp.AuthenticData = res.AuthData
	return resp
}

// replayResolver replays timed through fresh harness resolvers: once
// timing the server's per-datagram path (client observation, Unpack,
// Resolve, Pack), once staged without spans and once with spans. The
// staged path adds two shadow calls that happen inside Resolve: a
// Cache.Get probe before it, and, when Resolve consulted the local root
// zone, the same Zone.Query after it.
func replayResolver(zonePath string, timed []query, from netip.Addr, spansPath string) (replayResult, error) {
	z, err := loadZoneFile(zonePath)
	if err != nil {
		return replayResult{}, err
	}
	wires, err := packQueries(timed)
	if err != nil {
		return replayResult{}, err
	}
	m := map[string]float64{}
	us := usSamples{}

	r := newHarnessResolver(z, &memTransport{})
	runtime.GC()
	resolve := make([]time.Duration, len(wires))
	var handler time.Duration
	var bytes []float64
	for i, w := range wires {
		t0 := time.Now()
		r.Traffic().ObserveClient(from)
		var q dnswire.Message
		if err := q.Unpack(w); err != nil {
			return replayResult{}, err
		}
		t1 := time.Now()
		res, rerr := r.Resolve(q.Questions[0].Name, q.Questions[0].Type)
		resolve[i] = time.Since(t1)
		out, _ := respond(&q, res, rerr).Pack()
		handler += time.Since(t0)
		bytes = append(bytes, float64(len(out)))
		us.add("resolver.resolve_us", resolve[i])
		c := "valid"
		switch {
		case timed[i].Repeat:
			c = "repeat"
		case timed[i].Junk:
			c = "junk"
		}
		us.add("resolver.resolve_us."+c, resolve[i])
	}
	m["dnswire.response_bytes.mean"] = mean(bytes)

	stagedPass := func(rec *recorder) time.Duration {
		tr := &spanTransport{inner: &memTransport{}, rec: rec}
		r := newHarnessResolver(z, tr)
		runtime.GC()
		var total time.Duration
		for i, w := range wires {
			t := time.Now()
			stagedResolve(r, z, tr, rec, int32(i), w, from)
			total += time.Since(t)
		}
		return total
	}
	plain := stagedPass(nil)
	rec := newRecorder(len(wires) * 8)
	traced := stagedPass(rec)
	m["trace.overhead"] = ratio(float64(traced), float64(plain))

	var inside, resolveTotal time.Duration
	for i, st := range stageSelf(rec, len(wires)) {
		tld := "valid"
		if timed[i].Junk {
			tld = "junk"
		}
		for name, d := range st {
			switch name {
			case spanZoneQuery:
				us.add(name+"_us."+tld, d)
			case spanResolve:
				continue
			default:
				us.add(name+"_us", d)
			}
			if name == spanZoneQuery || name == spanCacheGet || name == spanUpstream {
				inside += d
			}
		}
		resolveTotal += resolve[i]
	}
	m["ledger.closure"] = ratio(float64(inside), float64(resolveTotal))
	for _, k := range []string{"dnswire.decode_us", "dnswire.encode_us", "traffic.observe_us",
		"zone.query_us.valid", "zone.query_us.junk", "resolver.upstream_us", "cache.get_us", "resolver.resolve_us",
		"resolver.resolve_us.valid", "resolver.resolve_us.junk", "resolver.resolve_us.repeat"} {
		us.emit(m, k)
	}
	if err := rec.write(spansPath); err != nil {
		return replayResult{}, err
	}
	return replayResult{metrics: m, handlerUS: float64(handler) / 1e3 / float64(len(wires))}, nil
}

// stagedResolve is the resolver server's per-datagram path with a span
// around each public call.
func stagedResolve(r *resolver.Resolver, z *zone.Zone, tr *spanTransport, rec *recorder, qi int32, wire []byte, from netip.Addr) {
	root := int32(-1)
	if rec != nil {
		root = rec.begin(qi, spanResolverHandler, -1)
		defer rec.end(root)
	}
	begin := func(name string) int32 {
		if rec == nil {
			return -1
		}
		return rec.begin(qi, name, root)
	}
	end := func(id int32) {
		if id >= 0 {
			rec.end(id)
		}
	}

	sp := begin(spanObserve)
	r.Traffic().ObserveClient(from)
	end(sp)

	sp = begin(spanDecode)
	var q dnswire.Message
	err := q.Unpack(wire)
	end(sp)
	if err != nil || len(q.Questions) != 1 {
		return
	}
	qq := q.Questions[0]

	sp = begin(spanCacheGet)
	r.Cache().Get(qq.Name, qq.Type)
	end(sp)

	consults := r.Stats().LocalRootConsults
	sp = begin(spanResolve)
	tr.qi, tr.parent = qi, sp
	res, rerr := r.Resolve(qq.Name, qq.Type)
	end(sp)
	if r.Stats().LocalRootConsults > consults {
		sp = begin(spanZoneQuery)
		z.Query(qq.Name, qq.Type)
		end(sp)
	}

	sp = begin(spanEncode)
	_, _ = respond(&q, res, rerr).Pack()
	end(sp)
}
