// Command perfbench is the repository's serving benchmark: it drives
// cmd/authd and a lookaside resolver server over loopback UDP with the
// paper's root workload and prints end-to-end metrics (untraced run) or
// per-layer metrics (traced run) as one JSON line.
//
// Usage (from the repository root, normally through perfbench/run.sh):
//
//	perfbench -workload auth-root-ditl -seed 1 -seconds 30 -trace 0
//	perfbench -workload auth-root-hot -seed 1 -seconds 30 -capacity
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// workload is one traffic mix against one server.
type workload struct {
	name    string
	server  string  // "authd" or "resolver"
	hot     bool    // cache-resident question set instead of the DITL stream
	refQPS  float64 // fixed reference rate
	limitMS float64 // p99 latency limit for the capacity search
	doShare float64 // share of authd queries with DO set
	replay  int     // queries the traced run replays in-process
	warm    int     // DITL queries sent, untimed, before the timed stream
}

// hotSetSize is the hot workload's question set: with and without DO it
// makes 512 answer-cache keys, well inside authd's 4,096-entry cache.
const hotSetSize = 256

var workloads = []workload{
	{name: "auth-root-ditl", server: "authd", refQPS: 25, limitMS: 100, doShare: 0.7, replay: 200, warm: 500},
	{name: "auth-root-hot", server: "authd", hot: true, refQPS: 2000, limitMS: 50, doShare: 0.7, replay: 20000},
	{name: "resolver-lookaside", server: "resolver", refQPS: 500, limitMS: 50, replay: 20000},
}

const (
	setupReps    = 5           // server starts per run; setup_s is their median
	queryTimeout = time.Second // a query unanswered after this has failed
	// windows splits the timed queries into equal runs in send order;
	// latency quantiles are the median over windows, so one transient
	// stall moves one window, not the result.
	windows = 5
	// maxLateMS is the median send lateness beyond which the generator,
	// not the server, sets the pace.
	maxLateMS = 1.0
)

func main() {
	if len(os.Args) > 1 {
		var err error
		switch os.Args[1] {
		case "serve-resolver":
			err = serveResolver(os.Args[2:])
		case "serve-echo":
			err = serveEcho(os.Args[2:])
		case "serve-spin":
			err = serveSpin(os.Args[2:])
		default:
			os.Exit(runMain())
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(runMain())
}

// opts are the benchmark's command-line settings.
type opts struct {
	w        workload
	seed     int64
	seconds  float64
	trace    bool
	capacity bool
	authd    string
	out      string
	self     string
}

func runMain() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds at the reference rate")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics (adds the traced replay)")
	capacity := flag.Bool("capacity", false, "also search the highest rate that meets the latency limit")
	authd := flag.String("authd", ".bench_build/authd", "cmd/authd binary built from this checkout")
	out := flag.String("out", ".bench_build", "directory for the zone file and span dumps")
	flag.Parse()

	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1, capacity: *capacity, authd: *authd, out: *out}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			o.w, found = w, true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o.self = self
	if o.w.server == "authd" {
		if _, err := os.Stat(o.authd); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: authd binary:", err)
			return 1
		}
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// inputs are a run's generated queries.
type inputs struct {
	zone  *zone.Zone
	warm  []query // sent before timing
	timed []query
}

func makeInputs(o opts, zonePath string) (*inputs, error) {
	z, err := buildSignedZone(zonePath)
	if err != nil {
		return nil, err
	}
	in := &inputs{zone: z}
	tlds := z.Delegations()
	n := int(math.Ceil(o.w.refQPS * o.seconds))
	if o.w.hot {
		in.warm, in.timed = hotQueries(o.seed, o.seed, n, hotSetSize, tlds, o.w.doShare)
	} else {
		// The warm-up is the start of the same trace. A new authd's CPU
		// per fresh DO query falls by about a quarter over its first
		// few hundred; timing starts after that.
		qs, err := ditlQueries(o.seed, o.w.warm+n, tlds)
		if err != nil {
			return nil, err
		}
		in.warm, in.timed = qs[:o.w.warm], qs[o.w.warm:]
		if o.w.server == "authd" {
			drawDO(in.warm, o.seed^0x3a7, o.w.doShare, 1)
			drawDO(in.timed, o.seed, o.w.doShare, windows)
		}
	}
	seen := map[cacheKey]bool{}
	markRepeats(in.warm, seen)
	markRepeats(in.timed, seen)
	return in, nil
}

// checker returns the workload's response oracle over qs.
func checker(w workload, qs []query) checkFunc {
	if w.server == "authd" {
		return func(i int, m *dnswire.Message) string { return checkAuth(m, qs[i]) }
	}
	return func(i int, m *dnswire.Message) string { return checkResolver(m, qs[i]) }
}

// startServer starts the workload's server setupReps times, keeping the
// last, and returns it with the median set-up time in seconds.
func startServer(o opts, zonePath string) (*process, float64, error) {
	var setups []float64
	var p *process
	for i := 0; i < setupReps; i++ {
		if p != nil {
			p.stop()
		}
		var d time.Duration
		var err error
		if o.w.server == "authd" {
			p, d, err = startAuthd(o.authd, zonePath)
		} else {
			p, d, err = startResolver(o.self, zonePath)
		}
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, d.Seconds())
	}
	return p, median(setups), nil
}

// counters is a server's count snapshot, by per-layer metric source name.
type counters map[string]float64

func snapshot(p *process, w workload) (counters, error) {
	if w.server == "authd" {
		return scrapeMetrics(p.admin)
	}
	st, err := requestStats(p)
	if err != nil {
		return nil, err
	}
	return counters{
		"resolutions":    float64(st.Resolver.Resolutions),
		"cache_answers":  float64(st.Resolver.CacheAnswers),
		"local_consults": float64(st.Resolver.LocalRootConsults),
		"nxdomain_cut":   float64(st.Resolver.NXDomainCutHits),
		"coalesced":      float64(st.Resolver.CoalescedResolutions),
		"shed":           float64(st.Resolver.ShedResolutions),
		"exchanges":      float64(st.Exchanges),
		"cache_entries":  float64(st.CacheEntries),
		"reads":          float64(st.Engine.Reads),
		"packets":        float64(st.Engine.Packets),
		"rxq_drops":      float64(st.Engine.RxQueueDrops),
		"handler_drops":  float64(st.Engine.Dropped),
		"gcs":            float64(st.GCs),
		"heap_mb":        st.HeapAllocMB,
	}, nil
}

func generatorSockets() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func run(o opts) (*result, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	spin, err := spawn(o.self, []string{"serve-spin"}, false)
	if err != nil {
		return nil, err
	}
	defer spin.stop()
	zonePath := filepath.Join(o.out, fmt.Sprintf("root-%d.zone", os.Getpid()))
	defer os.Remove(zonePath)
	in, err := makeInputs(o, zonePath)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d: %d timed queries at %.0f qps (%d warm-up), zone %+v\n",
		o.w.name, o.seed, len(in.timed), o.w.refQPS, len(in.warm), shapeOf(in.zone))
	printMix(in.timed)

	p, setupS, err := startServer(o, zonePath)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	if len(in.warm) > 0 {
		wires, err := packQueries(in.warm)
		if err != nil {
			return nil, err
		}
		if err := warmUp(p.dns, wires, checker(o.w, in.warm), queryTimeout); err != nil {
			return nil, err
		}
	}

	cfg := loadConfig{target: p.dns, sockets: generatorSockets(), rate: o.w.refQPS, timeout: queryTimeout, seed: o.seed}
	m, err := measure(o.w, p, cfg, in.timed)
	if err != nil {
		return nil, err
	}
	lr := m.lr
	wrong := 0
	for class, n := range lr.failures {
		if class != failTimeout {
			wrong += n
		}
	}
	timeoutMS := float64(queryTimeout.Milliseconds())
	p50 := finite(median(m.win.p50), timeoutMS)
	p99 := finite(median(m.win.p99), timeoutMS)
	cpuUS := m.win.runCPUUS
	lateP99 := quantile(append([]float64(nil), lr.lateMS...), 0.99)
	fmt.Printf("sent %d, answered %d, failures by class %v, strays %d\n", lr.attempted(), lr.answered, lr.failures, lr.strays)
	fmt.Printf("gen.late_p99_ms %.4f (generator lateness, %d sockets)\n", lateP99, cfg.sockets)
	fmt.Printf("per window (%d of %d queries): p50_ms %.3f p99_ms %.3f cpu_us_per_query %.1f\n",
		windows, lr.attempted()/windows, m.win.p50, m.win.p99, m.win.cpuUS)
	fmt.Printf("run: cpu_us_per_query %.2f; window medians: p50_ms %.4f p99_ms %.4f; setup_s %.4f rss_mb %.2f; pooled p99_ms %.4f\n",
		cpuUS, p50, p99, setupS, m.rssMB, finite(quantile(append([]float64(nil), lr.latMS...), 0.99), timeoutMS))

	res := &result{Correct: wrong == 0, Attempted: lr.attempted(), Failed: lr.failed(), Metrics: map[string]metric{}}
	if o.capacity {
		cr, ceiling, err := reportCapacity(o, in, cfg)
		if err != nil {
			return nil, err
		}
		res.Metrics["gen.ceiling_qps"] = metric{ceiling, "1/s"}
		if !cr.genBound {
			res.Metrics["capacity_qps"] = metric{cr.qps, "1/s"}
		}
	}
	if !o.trace {
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["rss_mb"] = metric{m.rssMB, "MiB"}
		res.Metrics["cpu_us_per_query"] = metric{cpuUS, "us"}
		res.Metrics["answered_ratio"] = metric{float64(lr.answered) / float64(lr.attempted()), "ratio"}
		return res, nil
	}

	layers := layerCounts(o.w, m.before, m.after)
	layers["gen.late_p99_ms"] = lateP99
	if layers["gen.ceiling_qps"], err = genCeiling(o.self, cfg.sockets, o.seed); err != nil {
		return nil, err
	}
	fmt.Printf("gen.ceiling_qps %.0f against the echo responder\n", layers["gen.ceiling_qps"])
	n := min(o.w.replay, len(in.timed))
	spansPath := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.tsv", o.w.name, o.seed))
	from := netip.MustParseAddr("127.0.0.1")
	var rp replayResult
	if o.w.server == "authd" {
		rp, err = replayAuth(zonePath, in.warm, in.timed[:n], from, spansPath)
	} else {
		rp, err = replayResolver(zonePath, in.timed[:n], from, spansPath)
	}
	if err != nil {
		return nil, err
	}
	for k, v := range rp.metrics {
		layers[k] = v
	}
	layers["ledger.unattributed_us"] = cpuUS - rp.handlerUS
	fmt.Printf("traced replay of %d queries: spans in %s; handler %.2f us/query, closure %.3f, trace overhead %.3f\n",
		n, spansPath, rp.handlerUS, layers["ledger.closure"], layers["trace.overhead"])
	for _, lm := range layerMetrics {
		v := layers[lm.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[lm.name] = metric{v, lm.unit}
	}
	return res, nil
}

// measurement is one timed run at the reference rate.
type measurement struct {
	lr            *loadResult
	win           windowStats
	rssMB         float64
	before, after counters // server counts around the timed window
}

// measure sends qs at the reference rate and samples the server: its
// counts before and after, its CPU as each window starts and at the
// end, and its peak RSS.
func measure(w workload, p *process, cfg loadConfig, qs []query) (*measurement, error) {
	wires, err := packQueries(qs)
	if err != nil {
		return nil, err
	}
	m := &measurement{}
	if m.before, err = snapshot(p, w); err != nil {
		return nil, err
	}
	cpu, err := procCPUSeconds(p.pid())
	if err != nil {
		return nil, err
	}
	marks := []float64{cpu}
	var markErr error
	cfg.windows = windows
	cfg.mark = func() {
		c, err := procCPUSeconds(p.pid())
		if err != nil {
			markErr = err
		}
		marks = append(marks, c)
	}
	if m.lr, err = runLoad(cfg, wires, checker(w, qs)); err != nil {
		return nil, err
	}
	if cpu, err = procCPUSeconds(p.pid()); err != nil {
		return nil, err
	}
	if markErr != nil {
		return nil, markErr
	}
	m.win = windowed(m.lr, append(marks, cpu), windows)
	if m.rssMB, err = procPeakRSSMB(p.pid()); err != nil {
		return nil, err
	}
	if m.after, err = snapshot(p, w); err != nil {
		return nil, err
	}
	return m, nil
}

// windowStats holds one value per window, and the whole run's server
// CPU per correct answer.
type windowStats struct {
	p50, p99, cpuUS []float64
	runCPUUS        float64
}

// windowed splits a run's queries into equal windows in send order and
// returns each window's latency quantiles and server CPU per correct
// answer, and the CPU per correct answer over the whole run. cpuMarks
// holds the server's CPU seconds at the start of each window and at the
// end of the run.
func windowed(lr *loadResult, cpuMarks []float64, windows int) windowStats {
	ws := windowStats{runCPUUS: math.NaN()}
	n := lr.attempted()
	if lr.answered > 0 && len(cpuMarks) > 1 {
		ws.runCPUUS = (cpuMarks[len(cpuMarks)-1] - cpuMarks[0]) * 1e6 / float64(lr.answered)
	}
	for w := 0; w < windows; w++ {
		lo, hi := w*n/windows, (w+1)*n/windows
		lat := append([]float64(nil), lr.latMS[lo:hi]...)
		answered := 0
		for _, l := range lat {
			if l != missed {
				answered++
			}
		}
		sort.Float64s(lat)
		ws.p50 = append(ws.p50, sortedQuantile(lat, 0.5))
		ws.p99 = append(ws.p99, sortedQuantile(lat, 0.99))
		cpu := math.NaN()
		if answered > 0 && w+1 < len(cpuMarks) {
			cpu = (cpuMarks[w+1] - cpuMarks[w]) * 1e6 / float64(answered)
		}
		ws.cpuUS = append(ws.cpuUS, cpu)
	}
	return ws
}

// printMix prints the query stream's composition.
func printMix(qs []query) {
	counts := map[string]int{}
	for _, q := range qs {
		counts[q.class()]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-12s %6d (%.1f%%)\n", k, counts[k], 100*float64(counts[k])/float64(len(qs)))
	}
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts turns the server's count snapshots around the timed
// window into the per-layer count metrics.
func layerCounts(w workload, before, after counters) map[string]float64 {
	d := func(k string) float64 { return after[k] - before[k] }
	m := map[string]float64{}
	if w.server == "authd" {
		q := d("rootless_authserver_queries_total")
		m["udpengine.msgs_per_read"] = ratio(d("rootless_udpengine_packets_total"), d("rootless_udpengine_reads_total"))
		m["udpengine.rxq_drops"] = d("rootless_udpengine_rxq_drops_total")
		m["udpengine.handler_drops"] = d("rootless_udpengine_handler_drops_total")
		hits, misses := d("rootless_authserver_packed_hits_total"), d("rootless_authserver_packed_misses_total")
		m["authserver.packed_hit_ratio"] = ratio(hits, hits+misses)
		m["authserver.packs_per_query"] = ratio(d("rootless_authserver_wire_packs_total"), q)
		m["authserver.truncated_ratio"] = ratio(d("rootless_authserver_truncated_total"), q)
		m["authserver.shed"] = d("rootless_authserver_shed_total")
		m["runtime.gc_per_kquery"] = 1000 * ratio(d("rootless_process_gc_total"), q)
		m["runtime.heap_mb"] = after["rootless_process_heap_bytes"] / (1 << 20)
		return m
	}
	q := d("resolutions")
	m["udpengine.msgs_per_read"] = ratio(d("packets"), d("reads"))
	m["udpengine.rxq_drops"] = d("rxq_drops")
	m["udpengine.handler_drops"] = d("handler_drops")
	m["resolver.upstream_per_query"] = ratio(d("exchanges"), q)
	m["resolver.cache_answer_ratio"] = ratio(d("cache_answers"), q)
	m["resolver.local_consults_per_query"] = ratio(d("local_consults"), q)
	m["resolver.nxdomain_cut_hits"] = d("nxdomain_cut")
	m["resolver.coalesced"] = d("coalesced")
	m["resolver.shed"] = d("shed")
	m["cache.entries"] = after["cache_entries"]
	m["runtime.gc_per_kquery"] = 1000 * ratio(d("gcs"), q)
	m["runtime.heap_mb"] = after["heap_mb"]
	return m
}

// genCeiling measures the generator against the echo responder: the
// highest of a doubling series of rates at which every query was
// answered and the median send ran less than maxLateMS behind its due
// time. A saturated sender falls further behind with every query, so its
// median lateness grows; the p99 is not used because host scheduling
// hiccups of a few ms reach it at any rate.
func genCeiling(self string, sockets int, seed int64) (float64, error) {
	p, err := startEcho(self)
	if err != nil {
		return 0, err
	}
	defer p.stop()
	best := 0.0
	for rate := 4000.0; rate <= 256000; rate *= 2 {
		n := int(rate * 0.4)
		qs := make([]query, n)
		for i := range qs {
			qs[i] = query{Name: "echo.perfbench.", Type: dnswire.TypeA}
		}
		wires, err := packQueries(qs)
		if err != nil {
			return 0, err
		}
		res, err := runLoad(loadConfig{target: p.dns, sockets: sockets, rate: rate, timeout: 200 * time.Millisecond, seed: seed},
			wires, func(i int, m *dnswire.Message) string { return checkCommon(m, qs[i]) })
		if err != nil {
			return 0, err
		}
		late := quantile(res.lateMS, 0.5)
		if float64(res.answered) < 0.999*float64(n) || late > maxLateMS {
			break
		}
		best = rate
	}
	if best == 0 {
		return 0, errors.New("generator ceiling below 4000 qps")
	}
	return best, nil
}
