package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"greenvm/internal/apps"
	"greenvm/internal/core"
	"greenvm/internal/experiments"
	"greenvm/internal/fleet"
	"greenvm/internal/jit"
)

// fleet-city: a streamed fleet.NewPopulation cohort running mf at size
// 16, one execution per client — R/AL/AA mix, diurnal:0.5 arrivals,
// overnight channel drift, 2 servers with p2c placement, Concurrency 2.
// Cohorts run back to back for the run length; the op is one client
// retired through Spec.ResultSink. This is the city-scale path:
// launch-on-demand clients, the event engine, placement, and server
// re-execution under the engine lock, with identical server inputs.

const (
	cityCohort      = 1000 // clients per cohort
	cityConcurrency = 2    // = nproc of the reference box
	// cityBlock consecutive retirements make one latency sample: the
	// host time per retired client over the block. It is a windowed
	// inverse throughput, not an independent per-client latency: the
	// engine does not expose when it launches a client.
	cityBlock = 50

	// The pinned cohort: every set-up also runs a cohort of
	// cityPinClients clients with the fixed cohort seed cityPinSeed, and
	// its records and Totals must digest to cityPinDigest. The other
	// checks compare cohorts with each other in one process; this one
	// catches a change that makes every cohort wrong in the same way.
	cityPinSeed    = 4242
	cityPinClients = 200
	cityPinDigest  = 0x83464171d455a07f
)

// citySetup is a prepared cohort spec with its pinned outcome: one
// digest per client record, in arrival order, and the cohort Totals.
type citySetup struct {
	env    *experiments.Env
	seed   uint64 // the cohort seed
	n      int    // clients per cohort
	conc   int    // fleet.Spec.Concurrency
	ref    []uint64
	totals fleet.Totals
	pinOK  bool // the set-up's pinned cohort digested to cityPinDigest
	// compileMS times App.FreshProgram and prepareMS experiments.Prepare
	// (traced set-ups only); memoAdded is how many JIT memo entries the
	// set-up created.
	compileMS, prepareMS float64
	memoAdded            int
}

func (c *citySetup) spec(sink func(fleet.ClientResult)) (fleet.Spec, error) {
	arrival, err := fleet.ParseArrival("diurnal:0.5")
	if err != nil {
		return fleet.Spec{}, err
	}
	drift, err := fleet.ParseDrift("overnight")
	if err != nil {
		return fleet.Spec{}, err
	}
	pop := fleet.NewPopulation(c.n,
		fleet.WithSeed(c.seed),
		fleet.WithStrategyMix(core.StrategyR, core.StrategyAL, core.StrategyAA),
		fleet.WithExecutions(1),
		fleet.WithSizes(16),
		fleet.WithArrivalCurve(arrival),
		fleet.WithChannelMix(fleet.ChannelDrifting),
		fleet.WithChannelDrift(drift))
	return fleet.Spec{
		Workload:    fleet.WorkloadOf(c.env),
		Population:  pop,
		ResultSink:  sink,
		Servers:     2,
		Placement:   fleet.PlaceP2C,
		Concurrency: c.conc,
	}, nil
}

// cohortRun is one cohort's streamed outcome.
type cohortRun struct {
	digests []uint64
	sums    fleet.Totals // recomputed from the streamed records
	blockMS []float64    // host ms per retired client, per block
	res     *fleet.Result
	// The clients' decisions, summed over the records.
	modes                   [core.NumModes]int
	memoHits, local, remote int
}

// runCohort runs one cohort, digesting each streamed record.
func (c *citySetup) runCohort() (*cohortRun, error) {
	cr := &cohortRun{digests: make([]uint64, 0, c.n)}
	last := time.Now()
	spec, err := c.spec(func(r fleet.ClientResult) {
		cr.digests = append(cr.digests, recordDigest(&r))
		cr.sums.Clients++
		cr.sums.Energy += r.Energy
		cr.sums.MaxTime = max(cr.sums.MaxTime, r.Time)
		cr.sums.Failovers += r.Stats.Failovers
		cr.sums.Fallbacks += r.Stats.Fallbacks
		if r.Err != "" {
			cr.sums.Errors++
		}
		for m, n := range r.Stats.ModeCounts {
			cr.modes[m] += n
		}
		cr.memoHits += r.Stats.MemoHits
		cr.local += r.Stats.LocalCompiles
		cr.remote += r.Stats.RemoteCompiles
		if len(cr.digests)%cityBlock == 0 {
			now := time.Now()
			cr.blockMS = append(cr.blockMS, now.Sub(last).Seconds()*1e3/cityBlock)
			last = now
		}
	})
	if err != nil {
		return nil, err
	}
	if cr.res, err = fleet.Run(spec); err != nil {
		return nil, err
	}
	return cr, nil
}

// failures counts a cohort's wrong client records: a record whose
// digest differs from the pinned one or, charged to every client,
// reported Totals that disagree with the streamed records or the pin.
func (c *citySetup) failures(digests []uint64, streamed, reported fleet.Totals) int {
	if len(digests) != c.n || reported != streamed || streamed != c.totals {
		return c.n
	}
	bad := 0
	for i, d := range digests {
		if d != c.ref[i] {
			bad++
		}
	}
	return bad
}

// check tallies one cohort against the pin.
func (c *citySetup) check(rep *report, cr *cohortRun) {
	rep.attempted += c.n
	rep.failed += c.failures(cr.digests, cr.sums, cr.res.Totals)
}

// checkPin tallies the set-up's pinned cohort.
func (c *citySetup) checkPin(rep *report) {
	rep.attempted += cityPinClients
	if !c.pinOK {
		rep.failed += cityPinClients
	}
}

// cohortDigest digests a cohort's records, in arrival order, and its
// Totals: equal for every run of a cohort seed.
func cohortDigest(digests []uint64, totals fleet.Totals) uint64 {
	h := fnv{fnvOffset}
	for _, d := range digests {
		h.u64(d)
	}
	h.str(fmt.Sprintf("%+v", totals))
	return h.sum
}

func newCity(seed uint64, tr *tracer) (*citySetup, error) {
	a := apps.MF()
	c := &citySetup{seed: derive(seed, 3), n: cityCohort, conc: cityConcurrency}
	memo0 := jit.MemoSize()
	if tr != nil {
		sp := tr.begin("lang.compile", 0, 0, 0)
		if _, err := a.FreshProgram(); err != nil {
			return nil, err
		}
		tr.end(sp)
		c.compileMS = tr.sumMS("lang.compile")
	}
	sp := tr.begin("experiments.Prepare", 0, 0, 0)
	env, err := experiments.Prepare(a, profileSeed)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	if tr != nil {
		c.prepareMS = tr.sumMS("experiments.Prepare")
	}
	c.env = env
	// Warm-up: one whole cohort, whose records become the pin.
	cr, err := c.runCohort()
	if err != nil {
		return nil, err
	}
	if cr.res.Totals != cr.sums || cr.sums.Clients != cityCohort || cr.sums.Errors != 0 {
		return nil, fmt.Errorf("fleet-city: warm-up cohort inconsistent: totals %+v, streamed %+v", cr.res.Totals, cr.sums)
	}
	c.ref, c.totals = cr.digests, cr.sums
	pin := &citySetup{env: env, seed: cityPinSeed, n: cityPinClients, conc: cityConcurrency}
	pr, err := pin.runCohort()
	if err != nil {
		return nil, err
	}
	got := cohortDigest(pr.digests, pr.res.Totals)
	c.pinOK = got == cityPinDigest && pr.sums == pr.res.Totals
	if !c.pinOK {
		fmt.Fprintf(os.Stderr, "fleet-city: pinned cohort digest %016x, want %016x\n", got, uint64(cityPinDigest))
	}
	c.memoAdded = jit.MemoSize() - memo0
	return c, nil
}

func runCity(cfg config) (*report, error) {
	if cfg.trace {
		return traceCity(cfg)
	}
	rep := newReport()
	var first *citySetup
	c, setupS, err := setUp(setUps, func() (*citySetup, error) {
		c, err := newCity(cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		c.checkPin(rep)
		if first == nil {
			first = c
		} else {
			// Every set-up compiles a fresh program; its warm-up
			// cohort must reproduce the first one's records.
			rep.attempted += cityCohort
			rep.failed += first.failures(c.ref, c.totals, c.totals)
		}
		return c, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	first = nil
	runtime.GC()

	heap := startLiveHeap()
	var lat []float64
	start := time.Now()
	deadline := start.Add(cfg.window())
	ops := 0
	for time.Now().Before(deadline) {
		cr, err := c.runCohort()
		if err != nil {
			return nil, err
		}
		c.check(rep, cr)
		lat = append(lat, cr.blockMS...)
		ops += len(cr.digests)
	}
	elapsed := time.Since(start).Seconds()
	rep.values["live_heap_mib"] = heap.mib()
	rep.values["setup_s"] = setupS
	rep.values["ops_per_s"] = float64(ops) / elapsed
	rep.values["op_p50_ms"] = quantile(lat, 0.5)
	rep.values["op_p90_ms"] = quantile(lat, 0.9)
	fmt.Printf("fleet-city: %d clients in %d cohorts in %.2f s, %d failed; cohort digest %016x, totals %+v\n",
		ops, ops/cityCohort, elapsed, rep.failed, cohortDigest(c.ref, c.totals), c.totals)
	return rep, nil
}

// traceCity is the fleet-city ledger: whole cohorts untraced for half
// the window, then as many cohorts again with a span around each
// fleet.Run and a CPU profile. Every cohort must match the pin.
func traceCity(cfg config) (*report, error) {
	rep := newReport()
	spansPath, profPath, err := ledgerFiles("fleet-city")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	c, err := newCity(cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	c.checkPin(rep)
	rep.values["lang.compile_ms"] = c.compileMS
	rep.values["core.profile_ms"] = c.prepareMS - c.compileMS
	rep.values["jit.memo_entries"] = float64(c.memoAdded)
	runtime.GC()

	a := readRT()
	cohorts := 0
	var last *cohortRun
	for half := time.Now().Add(cfg.window() / 2); cohorts == 0 || time.Now().Before(half); cohorts++ {
		cr, err := c.runCohort()
		if err != nil {
			return nil, err
		}
		c.check(rep, cr)
		last = cr
	}
	b := readRT()
	ops := cohorts * cityCohort
	runtimeLedger(rep, a, b, ops)
	rep.values["fleet.mutex_wait_ms_per_kclient"] = (b.mutexWait - a.mutexWait) * 1e3 / (float64(ops) / 1e3)
	untraced := float64(ops) / b.at.Sub(a.at).Seconds()

	prof, err := startCPUProfile(profPath)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; i < cohorts; i++ {
		sp := tr.begin("fleet.Run", int64(i+1), 0, 0)
		cr, err := c.runCohort()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		c.check(rep, cr)
		if !sameServer(cr.res.Server, last.res.Server) {
			rep.failed += cityCohort
		}
	}
	traced := float64(ops) / time.Since(t0).Seconds()
	if err := prof.stop(rep); err != nil {
		return nil, err
	}
	srv := last.res.Server
	rep.values["core.exec_interp"] = float64(last.modes[core.ModeInterp])
	rep.values["core.exec_jit"] = float64(last.modes[core.ModeL1] + last.modes[core.ModeL2] + last.modes[core.ModeL3])
	rep.values["core.exec_remote"] = float64(last.modes[core.ModeRemote])
	rep.values["core.memo_hits"] = float64(last.memoHits)
	rep.values["core.local_compiles"] = float64(last.local)
	rep.values["core.remote_compiles"] = float64(last.remote)
	rep.values["fleet.served"] = float64(srv.Served)
	rep.values["fleet.shed_pct"] = 100 * last.res.ShedRate()
	rep.values["fleet.wait_p50_ms"] = nonNeg(srv.WaitDist.Quantile(0.5)) * 1e3
	rep.values["fleet.wait_p99_ms"] = nonNeg(srv.WaitDist.Quantile(0.99)) * 1e3
	rep.values["fleet.max_queue_depth"] = float64(srv.MaxQueueDepth)
	traceOverhead(rep, untraced, traced)
	fmt.Printf("fleet-city ledger: %d cohorts of %d clients untraced, then traced; profile %s\n", cohorts, cityCohort, profPath)
	return rep, tr.write(spansPath)
}

// sameServer compares the pool's deterministic admission outcomes.
func sameServer(a, b fleet.ServerResult) bool {
	return a.Served == b.Served && a.Shed == b.Shed && a.MaxQueueDepth == b.MaxQueueDepth &&
		a.CacheHits == b.CacheHits && a.WaitDist.Count == b.WaitDist.Count && a.WaitDist.Sum == b.WaitDist.Sum
}

func nonNeg(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	return v
}

// recordDigest hashes one streamed client record (FNV-1a over its
// outcome fields).
func recordDigest(r *fleet.ClientResult) uint64 {
	h := fnv{fnvOffset}
	h.str(r.ID)
	h.u64(uint64(r.Strategy))
	h.f64(float64(r.Energy))
	h.f64(float64(r.Time))
	for _, n := range r.Stats.ModeCounts {
		h.u64(uint64(n))
	}
	for _, n := range []int{r.Stats.Fallbacks, r.Stats.LocalCompiles, r.Stats.RemoteCompiles, r.Stats.Evictions,
		r.Stats.MemoHits, r.Stats.Retries, r.Stats.Sheds, r.Stats.Probes, r.Stats.LinkDowns, r.Stats.LinkUps,
		r.Stats.Failovers, r.Session.Requests, r.Session.CacheHits, r.Served, r.Shed} {
		h.u64(uint64(n))
	}
	h.f64(float64(r.AvgWait))
	h.f64(float64(r.MaxWait))
	h.str(r.Err)
	return h.sum
}

// fnv is FNV-1a, 64-bit.
type fnv struct{ sum uint64 }

const fnvOffset = 0xcbf29ce484222325

func hashBytes(b []byte) uint64 {
	h := fnv{fnvOffset}
	h.bytes(b)
	return h.sum
}

func (h *fnv) bytes(b []byte) {
	for _, c := range b {
		h.sum ^= uint64(c)
		h.sum *= 0x100000001b3
	}
}

func (h *fnv) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.sum ^= v & 0xff
		h.sum *= 0x100000001b3
		v >>= 8
	}
}

func (h *fnv) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *fnv) str(s string) {
	h.u64(uint64(len(s)))
	h.bytes([]byte(s))
}
