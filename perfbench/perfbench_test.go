package main

import (
	"math"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

func TestQuantileCountsMissedQueriesAsMisses(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i + 1) // 1..100 ms
	}
	if got := quantile(append([]float64(nil), lat...), 0.99); got != 99 {
		t.Fatalf("p99 of 1..100 = %v, want 99", got)
	}
	// Two missed queries: the 99th-ranked sample is now a miss, so p99
	// misses every latency limit, and prints as the timeout.
	lat[10], lat[20] = missed, missed
	p99 := quantile(append([]float64(nil), lat...), 0.99)
	if !math.IsInf(p99, 1) {
		t.Fatalf("p99 with 2%% missed = %v, want +Inf", p99)
	}
	if got := finite(p99, 1000); got != 1000 {
		t.Fatalf("finite(+Inf, 1000) = %v", got)
	}
	// The misses sort last, so the median moves up by their count.
	if got := quantile(append([]float64(nil), lat...), 0.5); got != 52 {
		t.Fatalf("p50 = %v, want 52", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if got := mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %v", got)
	}
}

func TestOutcomesTimeFromDueUnderStalledSender(t *testing.T) {
	ms := int64(time.Millisecond)
	// Four queries due 1 ms apart; the sender stalls and sends all of them
	// at 10 ms; each is answered 0.5 ms after it was sent.
	due := []int64{0, 1 * ms, 2 * ms, 3 * ms}
	sent := []int64{10 * ms, 10 * ms, 10 * ms, 10 * ms}
	recv := []int64{10*ms + ms/2, 10*ms + ms/2, 10*ms + ms/2, 10*ms + ms/2}
	ok := []bool{true, true, true, true}
	lat, late, answered := outcomes(due, sent, recv, ok, time.Second)
	if answered != 4 {
		t.Fatalf("answered = %d", answered)
	}
	wantLat := []float64{10.5, 9.5, 8.5, 7.5}
	wantLate := []float64{10, 9, 8, 7}
	if !reflect.DeepEqual(lat, wantLat) || !reflect.DeepEqual(late, wantLate) {
		t.Fatalf("lat %v late %v, want %v %v", lat, late, wantLat, wantLate)
	}

	// A wrong answer, no answer, and an answer after the timeout all miss.
	recv = []int64{10 * ms, 0, 2*ms + 5*ms, 10 * ms}
	ok = []bool{false, false, true, true}
	lat, _, answered = outcomes(due, sent, recv, ok, 4*time.Millisecond)
	if answered != 0 {
		t.Fatalf("answered = %d, want 0: %v", answered, lat)
	}
	for i, l := range lat {
		if l != missed {
			t.Errorf("query %d latency %v, want missed", i, l)
		}
	}
}

func TestScheduleIsSeededPoisson(t *testing.T) {
	a, b := schedule(20000, 1000, 7), schedule(20000, 1000, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(20000, 1000, 8)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 20,000 arrivals at 1,000/s span about 20 s.
	if span := a[len(a)-1].Seconds(); span < 19 || span > 21 {
		t.Fatalf("span %.2f s, want about 20", span)
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command field may hold spaces and parentheses.
	line := "4242 (auth d) (x)) S 1 4242 4242 0 -1 4194560 2000 0 0 0 1234 566 0 0 20 0 9 0 100 1000000 3000\n"
	got, err := parseStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := (1234.0 + 566.0) / clockTicks; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU([]byte("4242 (authd) S 1 2")); err == nil {
		t.Fatal("short stat line parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	doc := "Name:\tauthd\nVmPeak:\t  900000 kB\nVmHWM:\t   30720 kB\nVmRSS:\t   20000 kB\n"
	got, err := parseVmHWM([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got != 30 {
		t.Fatalf("VmHWM = %v MiB, want 30", got)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Fatal("missing VmHWM parsed")
	}
}

func TestProcReadsOwnProcess(t *testing.T) {
	pid := 0
	for i := 0; i < 1e7; i++ {
		pid += i % 3 // burn a little CPU
	}
	_ = pid
	if _, err := procCPUSeconds(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	if mb, err := procPeakRSSMB(os.Getpid()); err != nil || mb <= 0 {
		t.Fatalf("peak RSS %v MiB, err %v", mb, err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 2, Start: 25, End: 35},
	}
	got := selfTimes(spans)
	// Root: 100 minus the union [10,50] ∪ [90,100] = 50.
	want := []int64{50, 20, 20, 30, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestStageSelfSkipsRoots(t *testing.T) {
	rec := newRecorder(8)
	root := rec.begin(0, spanAuthHandler, -1)
	a := rec.begin(0, spanDecode, root)
	rec.end(a)
	b := rec.begin(0, spanAdmit, root)
	rec.end(b)
	c := rec.begin(0, spanAdmit, root)
	rec.end(c)
	rec.end(root)
	st := stageSelf(rec, 1)
	if _, ok := st[0][spanAuthHandler]; ok {
		t.Fatal("root span counted as a stage")
	}
	want := time.Duration(rec.spans[b].End-rec.spans[b].Start) + time.Duration(rec.spans[c].End-rec.spans[c].Start)
	if st[0][spanAdmit] != want {
		t.Fatalf("admit self %v, want both spans summed %v", st[0][spanAdmit], want)
	}
	path := filepath.Join(t.TempDir(), "spans.tsv")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
}

func TestSearchCapacityBrackets(t *testing.T) {
	pass := func(limit float64) func(float64) probeResult {
		return func(rate float64) probeResult { return probeResult{ok: rate <= limit} }
	}
	// Doubling from 25 brackets 137 in (100, 200], then bisection narrows
	// the bracket below 5%.
	res := searchCapacity(25, 0.05, 30, pass(137))
	if res.genBound || res.qps > 137 || res.qps < 137/1.05 {
		t.Fatalf("capacity %v (probes %v), want within 5%% below 137", res.qps, res.probes)
	}
	if !reflect.DeepEqual(res.probes[:4], []float64{25, 50, 100, 200}) {
		t.Fatalf("bracketing probes %v", res.probes)
	}
	// A start above capacity halves until a step passes.
	res = searchCapacity(25, 0.05, 30, pass(7))
	if res.qps > 7 || res.qps < 7/1.05 {
		t.Fatalf("capacity %v (probes %v), want within 5%% below 7", res.qps, res.probes)
	}
	// A generator-bound step stops the search and flags it.
	res = searchCapacity(25, 0.05, 30, func(rate float64) probeResult {
		if rate >= 100 {
			return probeResult{genBound: true}
		}
		return probeResult{ok: true}
	})
	if !res.genBound || res.qps != 50 {
		t.Fatalf("got %+v, want generator-bound after passing 50", res)
	}
	// The probe budget bounds the search.
	res = searchCapacity(1, 0.0001, 5, pass(1e9))
	if len(res.probes) != 5 {
		t.Fatalf("%d probes, want 5", len(res.probes))
	}
}

func TestBacklogGrowing(t *testing.T) {
	flat := make([]float64, 400)
	climbing := make([]float64, 400)
	for i := range flat {
		flat[i] = 1 + float64(i%7)/10
		climbing[i] = 1 + float64(i)
	}
	if backlogGrowing(flat, 5) {
		t.Fatal("flat latencies flagged as a growing backlog")
	}
	if !backlogGrowing(climbing, 5) {
		t.Fatal("climbing latencies not flagged")
	}
}

func TestParseMetricsSumsLabels(t *testing.T) {
	text := "# HELP x y\nrootless_udpengine_reads_total{worker=\"0\"} 3\nrootless_udpengine_reads_total{worker=\"1\"} 4\nrootless_authserver_queries_total 10\n"
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m["rootless_udpengine_reads_total"] != 7 || m["rootless_authserver_queries_total"] != 10 {
		t.Fatalf("parsed %v", m)
	}
}

func TestLayerMetricNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, lm := range layerMetrics {
		if seen[lm.name] {
			t.Fatalf("duplicate per-layer metric %s", lm.name)
		}
		seen[lm.name] = true
	}
	if len(layerMetrics) > 128 {
		t.Fatalf("%d per-layer metrics", len(layerMetrics))
	}
}

// testDir holds the zone file the oracle tests share.
var testDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	testDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// signedZone builds the benchmark's zone once for the oracle tests.
var signedZone = sync.OnceValues(func() (string, error) {
	path := filepath.Join(testDir, "root.zone")
	_, err := buildSignedZone(path)
	return path, err
})

func loadTestZone(t *testing.T) (*zone.Zone, string) {
	t.Helper()
	path, err := signedZone()
	if err != nil {
		t.Fatal(err)
	}
	z, err := loadZoneFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := shapeOf(z); got != wantShape {
		t.Fatalf("reloaded zone shape %+v, want %+v", got, wantShape)
	}
	return z, path
}

func TestAuthOracleOnServedAnswers(t *testing.T) {
	z, _ := loadTestZone(t)
	srv := newAuthServer(z)
	from := netip.MustParseAddr("127.0.0.1")
	ask := func(q query) *dnswire.Message {
		t.Helper()
		w, err := q.wire(1)
		if err != nil {
			t.Fatal(err)
		}
		out := srv.ServeWire(w, from, nil)
		var m dnswire.Message
		if err := m.Unpack(out); err != nil {
			t.Fatal(err)
		}
		return &m
	}
	cases := []query{
		{Name: "www.example.com.", Type: dnswire.TypeA, EDNS: true, DO: true},
		{Name: "www.example.com.", Type: dnswire.TypeA, EDNS: true},
		{Name: "printer.corp.", Type: dnswire.TypeA, EDNS: true, DO: true, Junk: true},
		{Name: "printer.corp.", Type: dnswire.TypeAAAA, EDNS: true, Junk: true},
	}
	for _, q := range cases {
		m := ask(q)
		if f := checkAuth(m, q); f != "" {
			t.Errorf("%s %s DO=%v: oracle failed a served answer: %s\n%s", q.Name, q.Type, q.DO, f, m)
		}
	}

	junk := cases[2]
	m := ask(junk)
	m.Rcode = dnswire.RcodeSuccess
	if f := checkAuth(m, junk); f != failRcode {
		t.Errorf("NOERROR for junk: got %q", f)
	}
	m = ask(junk)
	m.Authority = dropType(m.Authority, dnswire.TypeNSEC)
	if f := checkAuth(m, junk); f != failNSEC {
		t.Errorf("denial without NSEC: got %q", f)
	}
	m = ask(junk)
	m.Answers, m.Authority = dropType(m.Answers, dnswire.TypeRRSIG), dropType(m.Authority, dnswire.TypeRRSIG)
	if f := checkAuth(m, junk); f != failRRSIG {
		t.Errorf("DO answer without RRSIG: got %q", f)
	}
	m = ask(junk)
	m.Additional = dropType(m.Additional, dnswire.TypeOPT)
	if f := checkAuth(m, junk); f != failOPT {
		t.Errorf("answer without OPT: got %q", f)
	}
	m = ask(junk)
	m.Questions[0].Name = "other.corp."
	if f := checkAuth(m, junk); f != failQuestion {
		t.Errorf("wrong question: got %q", f)
	}
	valid := cases[0]
	m = ask(valid)
	m.Authority = dropType(m.Authority, dnswire.TypeNS)
	if f := checkAuth(m, valid); f != failReferral {
		t.Errorf("valid name without referral: got %q", f)
	}
}

func TestResolverOracleOnHarnessAnswers(t *testing.T) {
	z, _ := loadTestZone(t)
	r := newHarnessResolver(z, &memTransport{})
	cases := []query{
		{Name: "www.example.com.", Type: dnswire.TypeA},
		{Name: "www.example.com.", Type: dnswire.TypeMX},
		{Name: "abcdefgh.corp.", Type: dnswire.TypeA, Junk: true},
	}
	for _, q := range cases {
		msg := dnswire.NewQuery(1, q.Name, q.Type)
		res, err := r.Resolve(q.Name, q.Type)
		m := respond(msg, res, err)
		if f := checkResolver(m, q); f != "" {
			t.Errorf("%s %s: oracle failed a harness answer: %s (err %v)", q.Name, q.Type, f, err)
		}
	}
	q := cases[0]
	msg := dnswire.NewQuery(1, q.Name, q.Type)
	res, err := r.Resolve(q.Name, q.Type)
	m := respond(msg, res, err)
	m.Answers = nil
	if f := checkResolver(m, q); f != failAnswer {
		t.Errorf("A query without an A record: got %q", f)
	}
}

func dropType(rrs []dnswire.RR, typ dnswire.Type) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range rrs {
		if rr.Type != typ {
			out = append(out, rr)
		}
	}
	return out
}

func TestInputsAreSeeded(t *testing.T) {
	tlds := []dnswire.Name{"com.", "net.", "org.", "de.", "uk."}
	a, err := ditlQueries(3, 2000, tlds)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ditlQueries(3, 2000, tlds)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different DITL streams")
	}
	drawDO(a, 3, 0.7, 4)
	drawDO(b, 3, 0.7, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different DO draws")
	}
	for blk := 0; blk < 4; blk++ {
		do := 0
		for _, q := range a[blk*500 : (blk+1)*500] {
			if q.DO {
				do++
			}
		}
		if do != 350 {
			t.Fatalf("block %d has %d DO queries, want exactly 350", blk, do)
		}
	}
	do, junk := 0, 0
	for _, q := range a {
		if q.DO {
			do++
		}
		if q.Junk {
			junk++
		}
	}
	if share := float64(do) / float64(len(a)); share < 0.65 || share > 0.75 {
		t.Fatalf("DO share %.3f, want about 0.7", share)
	}
	if share := float64(junk) / float64(len(a)); share < 0.58 || share > 0.64 {
		t.Fatalf("junk share %.3f, want about 0.61", share)
	}

	warm, timed := hotQueries(3, 3, 5000, hotSetSize, tlds, 0.7)
	keys := map[cacheKey]bool{}
	for _, q := range warm {
		keys[cacheKey{q.Name, q.Type, q.EDNS, q.DO}] = true
	}
	if len(keys) > 4096 {
		t.Fatalf("hot set has %d cache keys, more than authd's 4096", len(keys))
	}
	seen := map[cacheKey]bool{}
	markRepeats(warm, seen)
	markRepeats(timed, seen)
	for i, q := range timed {
		if !q.Repeat || q.Junk {
			t.Fatalf("timed hot query %d (%s) is not a cached valid question", i, q.Name)
		}
	}
}

func TestWindowedMedians(t *testing.T) {
	lr := &loadResult{latMS: []float64{1, 2, 3, 4, 5, 10, 20, missed, 40, 50}, answered: 9}
	// CPU seconds at the start of each window and at the end.
	ws := windowed(lr, []float64{1, 1.5, 3.1}, 2)
	if !reflect.DeepEqual(ws.p50, []float64{3, 40}) {
		t.Fatalf("window p50s %v", ws.p50)
	}
	if !math.IsInf(ws.p99[1], 1) {
		t.Fatalf("window with a missed query: p99 %v, want +Inf", ws.p99[1])
	}
	// Window 0: 0.5 s over 5 answers; window 1: 1.6 s over 4 answers.
	if math.Abs(ws.cpuUS[0]-1e5) > 1e-6 || math.Abs(ws.cpuUS[1]-4e5) > 1e-6 {
		t.Fatalf("window CPU per query %v, want [1e5 4e5]", ws.cpuUS)
	}
	// The whole run: 2.1 s over 9 answers.
	if math.Abs(ws.runCPUUS-2.1e6/9) > 1e-6 {
		t.Fatalf("run CPU per query %v, want %v", ws.runCPUUS, 2.1e6/9)
	}
	if got := windowOf(7, 10, 2); got != 1 {
		t.Fatalf("windowOf(7, 10, 2) = %d", got)
	}
}

func TestRunLoadAgainstEcho(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		buf := make([]byte, 64<<10)
		for {
			n, from, err := conn.ReadFrom(buf)
			if err != nil {
				return
			}
			buf[2] |= 0x80 // QR
			_, _ = conn.WriteTo(buf[:n], from)
		}
	}()
	qs := make([]query, 400)
	for i := range qs {
		qs[i] = query{Name: "echo.perfbench.", Type: dnswire.TypeA}
	}
	wires, err := packQueries(qs)
	if err != nil {
		t.Fatal(err)
	}
	marks := 0
	cfg := loadConfig{target: conn.LocalAddr().(*net.UDPAddr), sockets: 2, rate: 2000, timeout: time.Second, seed: 1,
		windows: 4, mark: func() { marks++ }}
	res, err := runLoad(cfg, wires, func(i int, m *dnswire.Message) string { return checkCommon(m, qs[i]) })
	if err != nil {
		t.Fatal(err)
	}
	if res.answered != len(qs) || res.failed() != 0 || len(res.failures) != 0 {
		t.Fatalf("answered %d of %d, failures %v", res.answered, len(qs), res.failures)
	}
	if marks != 3 {
		t.Fatalf("mark called %d times, want once per window after the first (3)", marks)
	}
	for i := range res.latMS {
		// Latency runs from the due time, so it includes any lateness.
		if res.latMS[i] < res.lateMS[i] || res.lateMS[i] < 0 {
			t.Fatalf("query %d: latency %.3f ms, lateness %.3f ms", i, res.latMS[i], res.lateMS[i])
		}
	}

	// An oracle failure counts against the run under its class.
	res, err = runLoad(cfg, wires, func(i int, m *dnswire.Message) string {
		if i%2 == 0 {
			return failRcode
		}
		return ""
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.answered != len(qs)/2 || res.failures[failRcode] != len(qs)/2 {
		t.Fatalf("answered %d, failures %v; want half failed as %s", res.answered, res.failures, failRcode)
	}
}
