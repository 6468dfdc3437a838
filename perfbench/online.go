package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/trace"
)

// online-fig2 is the paper's live-node experiment run continuously: the
// Fig 2 provider holds a table-scale RIB and receives a fixed-rate
// stream of incremental updates from the Internet side, each applied
// under the router's state lock, while one DiCE explorer checkpoints the
// provider under the same lock every 250 ms and explores the customer
// peering. The customer filter is the broken one of §4.2, so every round
// must find the YouTube-analogue hijack.
const (
	onlineTable      = 20000
	onlineRate       = 500 // updates per second
	onlineRoundEvery = 250 * time.Millisecond
	onlineWarmup     = 200 // updates applied before timing starts
	onlineSetups     = 9   // set-ups per run; setup_s is their median
	// Latencies are summarized per window of this length and reported as
	// the median over windows.
	onlineWindow = 5 * time.Second
)

// onlineTrace generates the workload's trace from the seed: the
// provider's table, at least updates incremental updates, and the fixed
// hijack victims. Records inside the customer's own space are dropped,
// as the paper's experiments do: in the non-hijacked steady state nobody
// else originates them.
func onlineTrace(seed int64, updates int) []trace.Record {
	updates += updates / 10 // headroom for the dropped records
	cfg := trace.DefaultGenConfig()
	cfg.Seed = seed
	cfg.TableSize = onlineTable
	cfg.UpdateCount = updates
	cfg.Duration = time.Duration(updates) * time.Second / onlineRate
	recs := append(trace.Generate(cfg), core.Victims()...)
	kept := recs[:0]
	for _, r := range recs {
		if !core.CustomerSpace.Overlaps(r.Prefix) {
			kept = append(kept, r)
		}
	}
	return kept
}

// checkHijack is online-fig2's output check on one exploration round.
func checkHijack(res *core.Result) error {
	for _, fd := range res.Findings {
		if fd.Validated && fd.VictimPrefix == core.YouTubeVictim {
			return nil
		}
	}
	return fmt.Errorf("round reported no validated finding covering %s (%d findings)", core.YouTubeVictim, len(res.Findings))
}

func runOnline(opts options) (*outcome, error) {
	o := newOutcome()
	total := onlineWarmup + int(opts.duration.Seconds()*onlineRate) + 1
	heap0 := liveHeapMB()
	dump, _ := trace.Split(onlineTrace(opts.seed, total))

	var (
		f                   *core.Fig2
		setups, builds, lds []float64
	)
	for i := 0; i < onlineSetups; i++ {
		f = nil
		runtime.GC()
		start := time.Now()
		fig, err := core.NewFig2(core.Fig2Options{CustomerFilter: core.BrokenCustomerFilter})
		if err != nil {
			return nil, err
		}
		built := time.Now()
		n, err := fig.LoadTable(dump)
		if err != nil {
			return nil, err
		}
		end := time.Now()
		if n != len(dump) {
			return nil, fmt.Errorf("table load delivered %d of %d prefixes", n, len(dump))
		}
		f = fig
		setups = append(setups, end.Sub(start).Seconds())
		builds = append(builds, built.Sub(start).Seconds())
		lds = append(lds, end.Sub(built).Seconds())
		opts.tracer.Add("setup", "core.NewFig2", start, built.Sub(start))
		opts.tracer.Add("setup", "core.Fig2.LoadTable", built, end.Sub(built))
	}
	o.e2e["setup_s"] = median(setups)
	o.layer["core.build_s"] = median(builds)
	o.layer["core.table_load_s"] = median(lds)
	// The heap is measured once the dump is garbage and before the update
	// stream exists, so it holds the router's state and none of the
	// benchmark's input. The stream is the same trace generated again.
	dump = nil
	o.e2e["live_heap_mb"] = liveHeapMB() - heap0
	_, recs := trace.Split(onlineTrace(opts.seed, total))
	stream := make([]*bgp.Update, len(recs))
	for i, r := range recs {
		stream[i] = trace.ToUpdate(r)
	}

	var mu sync.Mutex // the provider's state lock
	explorerLock := &holdTimer{mu: &mu, tr: opts.tracer}
	var cloneLock sync.Locker = &mu
	if opts.trace {
		cloneLock = explorerLock
	}
	dice := core.New(f.Provider, core.Options{
		Engine:    concolic.Options{Workers: 1},
		CloneLock: cloneLock,
	})
	sess := f.Internet.Session(core.NodeProvider)

	// Warm-up, untimed: one round and a few hundred updates, so lazy
	// set-up inside the layers is done before the clock starts.
	if res, err := dice.ExplorePeer(core.NodeCustomer); err != nil {
		return nil, err
	} else if err := checkHijack(res); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	explorerLock.take()
	for _, u := range stream[:onlineWarmup] {
		mu.Lock()
		err := sess.SendUpdate(u)
		f.Net.Run(0)
		mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	stream = stream[onlineWarmup:]

	rt := readRuntime()
	start := time.Now().Add(time.Millisecond)
	end := start.Add(opts.duration)

	// The explorer: a round is due every onlineRoundEvery; one that
	// overruns delays the next, whose latency still counts from when it
	// was due.
	var (
		rounds, clones, engine samples
		roundErrs              []error
		stats                  workStats
		wg                     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := newPacer(start, onlineRoundEvery)
		for k := 0; p.due(k).Before(end); k++ {
			due, _ := p.wait(k)
			res, err := dice.ExplorePeer(core.NodeCustomer)
			done := time.Now()
			if err == nil {
				err = checkHijack(res)
			}
			roundErrs = append(roundErrs, err)
			rounds.addDur(done.Sub(due), time.Millisecond)
			opts.tracer.Add("explorer", "explore round", due, done.Sub(due))
			if res != nil {
				engine.addDur(res.Report.Elapsed, time.Millisecond)
				stats.addReport(res.Report)
				stats.findings += len(res.Findings)
			}
			if opts.trace {
				// A round takes the lock for the scenario's seed, then
				// for the checkpoint clone: the last hold is the clone.
				if holds := explorerLock.take(); len(holds) > 0 {
					clones.addDur(holds[len(holds)-1], time.Millisecond)
				}
			}
		}
	}()

	// The generator: update i is due at start + i/rate. Latency runs from
	// due time to when the network has drained, so an update queued
	// behind a checkpoint is charged the wait.
	var updates, late, waits, sends, runs samples
	p := newPacer(start, time.Second/onlineRate)
	for i := 0; p.due(i).Before(end); i++ {
		if i >= len(stream) {
			return nil, fmt.Errorf("update stream exhausted after %d updates", i)
		}
		due, lateBy := p.wait(i)
		var err error
		if opts.trace {
			t0 := time.Now()
			mu.Lock()
			t1 := time.Now()
			err = sess.SendUpdate(stream[i])
			t2 := time.Now()
			f.Net.Run(0)
			t3 := time.Now()
			mu.Unlock()
			waits.addDur(t1.Sub(t0), time.Microsecond)
			sends.addDur(t2.Sub(t1), time.Microsecond)
			runs.addDur(t3.Sub(t2), time.Microsecond)
			opts.tracer.Add("generator", "update", due, t3.Sub(due))
		} else {
			mu.Lock()
			err = sess.SendUpdate(stream[i])
			f.Net.Run(0)
			mu.Unlock()
		}
		updates.addDur(time.Since(due), time.Millisecond)
		late.addDur(lateBy, time.Millisecond)
		o.record(err)
	}
	wg.Wait()
	allocMB, gcShare := rt.since()
	for _, err := range roundErrs {
		o.record(err)
	}

	// Update and round latencies: each statistic per window, then the
	// median over windows.
	perWindow := int(onlineWindow.Seconds() * onlineRate)
	tailP, _ := tailPercentile(perWindow)
	p50, windows := updates.windowed(perWindow, (*samples).p50)
	tail, _ := updates.windowed(perWindow, func(w *samples) float64 { return w.pct(tailP) })
	roundP50, _ := rounds.windowed(int(onlineWindow/onlineRoundEvery), (*samples).p50)
	o.e2e["op_p50_ms"] = p50
	o.e2e["op_tail_ms"] = tail
	o.e2e["round_p50_ms"] = roundP50
	o.e2e["alloc_mb_per_round"] = allocMB / float64(rounds.n())
	o.printf("update_p50_ms %.4f  update_p%g_ms %.4f  (%d updates at %d/s; per %v window, median of %d windows)",
		p50, tailP, tail, updates.n(), onlineRate, onlineWindow, windows)
	o.printf("explore_round_p50_ms %.4f  (%d rounds due every %v; per window, median of windows)", roundP50, rounds.n(), onlineRoundEvery)
	rtail, rtailP, _ := rounds.tail()
	o.printf("whole run: update_p50 %.4f  update_p%g %.4f  explore_round_p50 %.4f  explore_round_p%g %.4f ms",
		updates.p50(), tailP, updates.pct(tailP), rounds.p50(), rtailP, rtail)
	o.printf("generator_late_ms p50 %.4f p99 %.4f", late.p50(), late.pct(99))

	// A checkpoint blocks about one update in a round's 125, so only a
	// tail beyond p99 shows the lock wait.
	cloneTail, cloneP, _ := clones.tail()
	waitTail, waitP, _ := waits.tail()
	o.layer["router.clone_ms_p50"] = clones.p50()
	o.layer["router.clone_ms_tail"] = cloneTail
	o.layer["router.lock_wait_us_tail"] = waitTail
	if opts.trace {
		o.printf("router.clone_ms_tail at p%g of %d rounds, router.lock_wait_us_tail at p%g of %d updates", cloneP, clones.n(), waitP, waits.n())
	}
	o.layer["bgp.send_update_us_p50"] = sends.p50()
	o.layer["netsim.run_us_p50"] = runs.p50()
	o.layer["bench.generator_late_ms_p99"] = late.pct(99)
	o.layer["concolic.explore_ms"] = engine.p50()
	o.layer["runtime.gc_cpu_share"] = gcShare
	stats.report(o, rounds.n())
	finish(o, opts)
	return o, nil
}
