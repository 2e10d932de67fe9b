package main

import (
	"fmt"
	"math"
)

// probeResult is the verdict of one fixed-rate step of a capacity search.
type probeResult struct {
	// ok: p99 within the latency limit, answered ratio >= 0.999 and no
	// growing backlog.
	ok bool
	// genBound: the generator could not keep the schedule (or the rate
	// reached its measured ceiling), so the step says nothing about the
	// server.
	genBound bool
}

// capacityResult is the outcome of searchCapacity.
type capacityResult struct {
	qps      float64 // highest passing rate found; 0 if none passed
	genBound bool    // search stopped at the generator's ceiling
	probes   []float64
}

// searchCapacity finds the highest offered rate that passes probe. It
// doubles from start until a step fails (or halves until one passes),
// then bisects until the bracket is narrower than resolution (a share
// of the lower end). A generator-bound step stops the search and flags
// the result instead of reporting a server capacity. maxProbes bounds
// the number of steps.
func searchCapacity(start, resolution float64, maxProbes int, probe func(rate float64) probeResult) capacityResult {
	var res capacityResult
	step := func(rate float64) (ok, stop bool) {
		if len(res.probes) >= maxProbes {
			return false, true
		}
		res.probes = append(res.probes, rate)
		p := probe(rate)
		if p.genBound {
			res.genBound = true
			return false, true
		}
		return p.ok, false
	}

	lo, hi := 0.0, 0.0
	rate := start
	for {
		ok, stop := step(rate)
		if stop {
			res.qps = lo
			return res
		}
		if !ok {
			hi = rate
			break
		}
		lo = rate
		rate *= 2
	}
	for lo == 0 {
		rate = hi / 2
		if rate < 1 {
			return res
		}
		ok, stop := step(rate)
		if stop {
			return res
		}
		if ok {
			lo = rate
		} else {
			hi = rate
		}
	}
	for (hi-lo)/lo > resolution {
		mid := (lo + hi) / 2
		ok, stop := step(mid)
		if stop {
			break
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	res.qps = lo
	return res
}

// capacityResolution is the search's stopping width: 5% of the rate.
const capacityResolution = 0.05

// reportCapacity searches the highest offered rate at which the server
// answers ≥ 99.9% of queries correctly, p99 stays within the workload's
// limit and latency does not climb through the step. Each step sends
// fresh queries for o.seconds. It prints every step and returns the
// result and the generator's ceiling.
func reportCapacity(o opts, in *inputs, base loadConfig) (capacityResult, float64, error) {
	ceiling, err := genCeiling(o.self, base.sockets, o.seed)
	if err != nil {
		return capacityResult{}, 0, err
	}
	var stepErr error
	round := int64(0)
	probe := func(rate float64) probeResult {
		if stepErr != nil {
			return probeResult{genBound: true}
		}
		if rate > 0.9*ceiling {
			return probeResult{genBound: true}
		}
		round++
		qs, err := stepQueries(o, in, rate, round)
		if err != nil {
			stepErr = err
			return probeResult{genBound: true}
		}
		wires, err := packQueries(qs)
		if err != nil {
			stepErr = err
			return probeResult{genBound: true}
		}
		cfg := base
		cfg.rate, cfg.seed = rate, o.seed+round
		lr, err := runLoad(cfg, wires, checker(o.w, qs))
		if err != nil {
			stepErr = err
			return probeResult{genBound: true}
		}
		p99 := quantile(append([]float64(nil), lr.latMS...), 0.99)
		late := quantile(append([]float64(nil), lr.lateMS...), 0.5)
		answered := float64(lr.answered) / float64(lr.attempted())
		growing := backlogGrowing(lr.latMS, 5)
		fmt.Printf("  capacity step %.0f qps: p99 %.3f ms, answered %.4f, backlog growing %v, late p50 %.3f ms\n",
			rate, finite(p99, float64(queryTimeout.Milliseconds())), answered, growing, late)
		if late > maxLateMS {
			return probeResult{genBound: true}
		}
		return probeResult{ok: p99 <= o.w.limitMS && answered >= 0.999 && !growing}
	}
	res := searchCapacity(o.w.refQPS, capacityResolution, 14, probe)
	if stepErr != nil {
		return res, ceiling, stepErr
	}
	if res.genBound {
		fmt.Printf("capacity_qps: generator-bound at %.0f qps (ceiling %.0f qps); no server capacity reported\n", res.qps, ceiling)
	} else {
		fmt.Printf("capacity_qps %.0f (p99 limit %.0f ms, %d steps, resolution %.0f%%)\n",
			res.qps, o.w.limitMS, len(res.probes), 100*capacityResolution)
	}
	return res, ceiling, nil
}

// stepQueries makes one capacity step's queries: a fresh DITL draw at
// that rate, or fresh draws from the same hot set.
func stepQueries(o opts, in *inputs, rate float64, round int64) ([]query, error) {
	n := int(math.Ceil(rate * o.seconds))
	seed := o.seed + 1000*round
	tlds := in.zone.Delegations()
	var qs []query
	if o.w.hot {
		_, qs = hotQueries(o.seed, seed, n, hotSetSize, tlds, o.w.doShare)
	} else {
		var err error
		if qs, err = ditlQueries(seed, n, tlds); err != nil {
			return nil, err
		}
		if o.w.server == "authd" {
			drawDO(qs, seed, o.w.doShare, windows)
		}
	}
	return qs, nil
}
