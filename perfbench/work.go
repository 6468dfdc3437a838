package main

import (
	"time"

	"dice/internal/concolic"
)

// workStats adds up the exploration and oracle work of a run's rounds.
type workStats struct {
	runs, paths, solverCalls, solverSat, cacheHits int
	findings, witnesses, steps, violations         int
}

func (s *workStats) addReport(r *concolic.Report) {
	s.runs += r.Runs
	s.paths += len(r.Paths)
	s.solverCalls += r.SolverCalls
	s.solverSat += r.SolverSat
	s.cacheHits += r.CacheHits
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// report sets the per-round work metrics for rounds rounds.
func (s *workStats) report(o *outcome, rounds int) {
	o.layer["concolic.runs"] = ratio(s.runs, rounds)
	o.layer["concolic.paths"] = ratio(s.paths, rounds)
	o.layer["concolic.useful_ratio"] = ratio(s.paths, s.runs)
	o.layer["solver.calls"] = ratio(s.solverCalls, rounds)
	o.layer["solver.sat_ratio"] = ratio(s.solverSat, s.solverCalls)
	o.layer["solver.cache_hit_ratio"] = ratio(s.cacheHits, s.solverCalls+s.cacheHits)
	o.layer["core.findings"] = ratio(s.findings, rounds)
	o.layer["core.witnesses"] = ratio(s.witnesses, rounds)
	o.layer["core.propagation_steps"] = ratio(s.steps, rounds)
	o.layer["core.violations"] = ratio(s.violations, rounds)
}

// finish copies a traced run's end-to-end numbers into its per-layer
// metrics, where they sit beside an untraced run's.
func finish(o *outcome, opts options) {
	if !opts.trace {
		return
	}
	for _, m := range endToEnd {
		o.layer["traced."+m.name] = o.e2e[m.name]
	}
}

// A round workload's run sets up several generated fabrics, each from
// its own seed derived from the run's, cycles its rounds over all of
// them and pools the results: the work a round does varies from one
// generated topology to the next (the allocation of a distributed round
// by a sixth), and one fabric would let that variation through as
// run-to-run noise. Each fabric's set-up is one of the run's set-up
// samples.
func fabricSeed(seed int64, fabrics, j int) int64 { return seed*int64(fabrics) + int64(j) }

// roundLog pools a round workload's measurements over its fabrics.
type roundLog struct {
	stats  workStats
	setups []float64
	layer  map[string][]float64 // per-layer samples, one or more per fabric
}

func (l *roundLog) addLayer(name string, v float64) {
	l.layer[name] = append(l.layer[name], v)
}

// fabric is one set-up fabric of a round workload.
type fabric struct {
	round func() error // one round, checked
	close func()
}

// runFabrics sets up n fabrics with setup, then runs rounds back to back
// for the run's duration (a closed loop: one caller waiting on each
// reply), cycling over the fabrics so each gets an equal share. Each
// round is an operation that fails when round returns an error.
func runFabrics(o *outcome, opts options, n int, setup func(seed int64, l *roundLog) (fabric, error)) error {
	l := &roundLog{layer: map[string][]float64{}}
	heap0 := liveHeapMB()
	var fabrics []fabric
	defer func() {
		for _, f := range fabrics {
			if f.close != nil {
				f.close()
			}
		}
	}()
	for j := 0; j < n; j++ {
		f, err := setup(fabricSeed(opts.seed, n, j), l)
		if err != nil {
			return err
		}
		fabrics = append(fabrics, f)
	}
	o.e2e["setup_s"] = median(l.setups)
	o.e2e["live_heap_mb"] = (liveHeapMB() - heap0) / float64(n)

	var lat samples
	before := readRuntime()
	end := time.Now().Add(opts.duration)
	for i := 0; time.Now().Before(end); i++ {
		start := time.Now()
		err := fabrics[i%len(fabrics)].round()
		lat.addDur(time.Since(start), time.Millisecond)
		o.record(err)
	}
	allocMB, gcShare := before.since()

	tail, tailP, ok := lat.tail()
	o.e2e["op_p50_ms"] = lat.p50()
	o.e2e["op_tail_ms"] = tail
	o.e2e["round_p50_ms"] = lat.p50()
	o.e2e["alloc_mb_per_round"] = allocMB / float64(lat.n())
	o.layer["runtime.gc_cpu_share"] = gcShare
	note := ""
	if !ok {
		note = ", fewer than 10 beyond the median"
	}
	o.printf("round_p50_ms %.4f  round_tail_ms %.4f at p%g  (%d rounds over %d fabrics%s)",
		lat.p50(), tail, tailP, lat.n(), len(fabrics), note)
	o.printf("live_heap_mb is per fabric: %d fabrics held %.4f MB", len(fabrics), o.e2e["live_heap_mb"]*float64(n))
	for name, v := range l.layer {
		o.layer[name] = median(v)
	}
	l.stats.report(o, lat.n())
	finish(o, opts)
	return nil
}
