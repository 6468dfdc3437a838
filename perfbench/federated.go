package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dice/internal/bgp"
	"dice/internal/concolic"
	"dice/internal/core"
	"dice/internal/telemetry"
	"dice/internal/topo"
)

// The two round workloads share one generated fabric shape: 200 ASes in
// three tiers with 16 provider→customer routeleak targets.
func fabricSpec(seed int64, policyClauses int) topo.Spec {
	return topo.Spec{Seed: seed, Nodes: 200, ExploreTargets: 16, PolicyClauses: policyClauses}
}

func roundOptions(maxWitnesses int) core.FederatedOptions {
	return core.FederatedOptions{
		Engine:          concolic.Options{MaxRuns: 2000},
		Workers:         2,
		MaxWitnesses:    maxWitnesses,
		DefaultScenario: core.ScenarioRouteLeak,
	}
}

// federated-as200: cold in-process federated rounds. 32 policy clauses
// per customer filter give every target a real path space, and four
// witnesses keep propagation small, so exploration and solving dominate.
func runFederated(opts options) (*outcome, error) {
	o := newOutcome()
	fo := roundOptions(4)
	err := runFabrics(o, opts, 8, func(seed int64, l *roundLog) (fabric, error) {
		start := time.Now()
		t, _, err := topo.Generate(fabricSpec(seed, 32))
		if err != nil {
			return fabric{}, err
		}
		generated := time.Now()
		fe, err := core.NewFederatedExperiment(t, fo)
		if err != nil {
			return fabric{}, err
		}
		end := time.Now()
		l.setups = append(l.setups, end.Sub(start).Seconds())
		l.addLayer("topo.generate_s", generated.Sub(start).Seconds())
		l.addLayer("core.build_s", end.Sub(generated).Seconds())
		opts.tracer.Add("setup", "topo.Generate", start, generated.Sub(start))
		opts.tracer.Add("setup", "core.NewFederatedExperiment", generated, end.Sub(generated))

		// The untimed first round is the reference every timed round
		// must reproduce; it also warms the layers' lazy state.
		ref, err := fe.Round()
		if err != nil {
			return fabric{}, err
		}
		want := ref.Snapshot()
		o.printf("fabric seed %d: reference round %d targets, %d violations, %d witnesses injected, %d propagation steps",
			seed, len(ref.Targets), len(ref.Violations), ref.WitnessesInjected, ref.PropagationSteps)
		boundary, err := t.BoundaryCommunity()
		if err != nil {
			return fabric{}, err
		}
		round := func() error {
			var (
				res *core.FederatedResult
				err error
			)
			if opts.trace {
				var pt [4]time.Duration
				res, pt, err = phasedRound(fe, fo, boundary, opts.tracer)
				for i, name := range phaseNames {
					l.addLayer(name, float64(pt[i])/float64(time.Millisecond))
				}
			} else {
				res, err = fe.Round()
			}
			if err != nil {
				return err
			}
			for _, tr := range res.Targets {
				if tr.Result != nil {
					l.stats.addReport(tr.Result.Report)
					l.stats.findings += len(tr.Result.Findings)
				}
			}
			l.stats.witnesses += res.WitnessesInjected
			l.stats.steps += res.PropagationSteps
			l.stats.violations += len(res.Violations)
			if len(res.Violations) == 0 {
				return fmt.Errorf("round found no cross-node violation")
			}
			if !slices.Equal(res.Snapshot(), want) {
				return fmt.Errorf("round snapshot differs from the first round's")
			}
			return nil
		}
		return fabric{round: round}, nil
	})
	return o, err
}

// phaseNames are the per-layer metrics of phasedRound's four phases.
var phaseNames = [4]string{"core.prepare_ms", "concolic.explore_ms", "core.analyze_ms", "core.check_witness_ms"}

// phasedRound is FederatedExperiment.Round driven from outside, one
// public call per phase, so each phase can be timed: PrepareTarget per
// target, one ExploreFleet, Analyze and WitnessRefs per target, then
// CheckWitness per injected witness. It returns the same result Round
// would (the workload's check holds it to Round's snapshot) and the four
// phase durations.
func phasedRound(fe *core.FederatedExperiment, fo core.FederatedOptions, boundary uint32, tr *telemetry.Tracer) (*core.FederatedResult, [4]time.Duration, error) {
	var pt [4]time.Duration
	start := time.Now()
	res := &core.FederatedResult{}
	var (
		preps   []*core.TargetPrep
		slots   []int
		members []concolic.FleetMember
	)
	for _, tg := range fe.Topo.ResolveTargets(fo.DefaultScenario) {
		live, ok := fe.Fabric.Routers[tg.Node]
		if !ok {
			return nil, pt, fmt.Errorf("unknown node %q", tg.Node)
		}
		slot := len(res.Targets)
		res.Targets = append(res.Targets, core.FederatedTargetResult{Node: tg.Node, Peer: tg.Peer, Scenario: tg.Scenario})
		tp, err := core.PrepareTarget(live, tg, fo.Engine, fe.States(), fo.ReuseState)
		if err != nil {
			var seedErr *core.SeedUnavailableError
			if errors.As(err, &seedErr) && !tg.Explicit {
				res.Targets[slot].Err = seedErr.Err
				continue
			}
			return nil, pt, fmt.Errorf("%s/%s: %w", tg.Node, tg.Peer, err)
		}
		preps = append(preps, tp)
		slots = append(slots, slot)
		members = append(members, concolic.FleetMember{ID: tg.Node, Engine: tp.Engine})
	}
	mark := func(phase int, name string, from time.Time) time.Time {
		now := time.Now()
		pt[phase] = now.Sub(from)
		tr.Add("round", name, from, pt[phase])
		return now
	}
	t := mark(0, "core.PrepareTarget", start)

	reports := concolic.ExploreFleet(members, fo.Workers)
	t = mark(1, "concolic.ExploreFleet", t)

	type witness struct {
		node, peer string
		update     *bgp.Update
		finding    *core.Finding
	}
	var witnesses []witness
	seen := map[string]bool{}
	for i, tp := range preps {
		tg := tp.Target
		r := tp.Analyze(fe.Fabric.Routers[tg.Node], fo.Engine, boundary, reports[i])
		res.Targets[slots[i]].Result = r
		for _, wr := range tp.WitnessRefs(r) {
			key := core.WitnessKey(tg.Node, tg.Peer, wr.Update)
			if seen[key] {
				continue
			}
			seen[key] = true
			witnesses = append(witnesses, witness{tg.Node, tg.Peer, wr.Update, &r.Findings[wr.Finding]})
		}
	}
	t = mark(2, "core.Analyze", t)

	for _, w := range witnesses {
		if res.WitnessesInjected >= fo.MaxWitnesses {
			res.WitnessesSkipped++
			continue
		}
		res.WitnessesInjected++
		w.finding.Witness = w.update
		out, err := fe.CheckWitness(w.node, w.peer, w.update)
		if err != nil {
			return nil, pt, err
		}
		res.PropagationSteps += out.Steps
		res.Violations = append(res.Violations, out.Violations...)
	}
	mark(3, "core.CheckWitness", t)
	res.Elapsed = time.Since(start)
	tr.Add("round", "federated round", start, res.Elapsed)
	return res, pt, nil
}
