// Package core implements DiCE itself — the paper's contribution: online
// testing of a deployed node by concolic exploration from live state.
//
// One exploration round (§2.3):
//
//  1. Take a checkpoint of the live node (page-granular, COW-shared).
//  2. Derive a symbolic input template from a previously observed message
//     (the scenario's seed: selectively small fields become symbolic).
//  3. Repeatedly: clone the checkpoint, execute the instrumented message
//     handler with an engine-chosen input, record the path constraints,
//     negate one predicate, solve, repeat — while intercepting every
//     message the clones produce so the deployed system is unaffected.
//  4. Run the scenario's fault oracles over the explored outcomes (e.g.
//     the origin misconfiguration / prefix-hijack detector of §4.2).
//
// The message-type-specific parts of a round live behind the Scenario
// interface (scenario.go); DiCE provides the round machinery once and
// keeps per-(scenario, peer) ExploreState so the paper's continuous
// online mode does not re-explore known paths every round.
package core

import (
	"fmt"
	"sync"
	"time"

	"dice/internal/bgp"
	"dice/internal/checkpoint"
	"dice/internal/concolic"
	"dice/internal/minimize"
	"dice/internal/netsim"
	"dice/internal/router"
)

// Options configures DiCE exploration rounds.
type Options struct {
	// Engine tunes the concolic engine (strategies, budgets, workers).
	Engine concolic.Options
	// ReuseState keeps per-(scenario, peer) exploration state across
	// rounds on this DiCE instance: repeated online rounds skip paths
	// and negations already explored and share a solver memo cache.
	// When false (default) every round explores from scratch, unless
	// Engine.State is set explicitly.
	ReuseState bool
	// MeasureMemory enables per-clone page accounting (the §4.1 memory
	// experiment). It costs one state serialization per run.
	MeasureMemory bool
	// CloneLock, when set, is held while forking clones from the live
	// router. Throughput experiments share it with the live update path
	// so checkpointing serializes against message processing, as fork()
	// serializes against the process it snapshots.
	CloneLock sync.Locker
	// PageSize for checkpoint accounting (0 = 4096).
	PageSize int
	// LeakBoundaryCommunity is the community the routeleak scenario's
	// oracle treats as the no-export policy boundary (0 = the RFC 1997
	// well-known NO_EXPORT). Federated experiments set it from the
	// topology file's no_export_community.
	LeakBoundaryCommunity uint32
}

// leakBoundary resolves the routeleak oracle's boundary community.
func (o Options) leakBoundary() uint32 {
	if o.LeakBoundaryCommunity != 0 {
		return o.LeakBoundaryCommunity
	}
	return bgp.CommunityNoExport
}

// MemoryStats reproduces the §4.1 memory measurements.
type MemoryStats struct {
	CheckpointPages int
	CheckpointBytes int
	// CheckpointUniqueFraction is the fraction of the checkpoint's pages
	// not shared with the live process state at measurement time (paper:
	// 3.45%).
	CheckpointUniqueFraction float64
	// CloneOverheadMean/Max are extra pages consumed by exploration
	// clones relative to the checkpoint (paper: mean 36.93%, max 39%).
	CloneOverheadMean float64
	CloneOverheadMax  float64
	ClonesMeasured    int
}

// Result is the outcome of one exploration round.
type Result struct {
	// Scenario is the name of the scenario that ran.
	Scenario string
	Report   *concolic.Report
	Findings []Finding
	// Details carries scenario-specific analysis beyond Findings (e.g.
	// *OpenExploration for "open", *WithdrawExploration for "withdraw");
	// nil when the scenario reports through Findings alone.
	Details any
	// FalsePositivesFiltered counts potential hijacks suppressed because
	// the prefix is known anycast space.
	FalsePositivesFiltered int
	// CapturedMessages is the number of messages clones tried to send;
	// all of them were intercepted (isolation invariant).
	CapturedMessages int
	// WitnessesRejected counts oracle findings whose witness failed
	// validation by re-execution (dropped from Findings).
	WitnessesRejected int
	// Minimization aggregates witness-minimization work over this
	// target's findings (nil unless a federated round ran with
	// FederatedOptions.Minimize and a witness triggered violations).
	Minimization *minimize.Stats
	Memory       MemoryStats
	Elapsed      time.Duration
}

// DiCE drives exploration for one live router.
type DiCE struct {
	live *router.Router
	opts Options

	mu     sync.Mutex
	states map[string]*concolic.ExploreState // keyed scenario + "/" + peer
}

// New creates a DiCE instance attached to a live router.
func New(live *router.Router, opts Options) *DiCE {
	return &DiCE{
		live:   live,
		opts:   opts,
		states: make(map[string]*concolic.ExploreState),
	}
}

// State returns the cross-round exploration state accumulated for a
// scenario and peer, or nil if no round has run with ReuseState set.
func (d *DiCE) State(scenario, peer string) *concolic.ExploreState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.states[scenario+"/"+peer]
}

// stateFor returns (allocating on first use) the shared state for a
// scenario and peer.
func (d *DiCE) stateFor(scenario, peer string) *concolic.ExploreState {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := scenario + "/" + peer
	st, ok := d.states[key]
	if !ok {
		st = concolic.NewExploreState()
		d.states[key] = st
	}
	return st
}

// withLock runs fn holding the clone lock when one is configured.
func (d *DiCE) withLock(fn func()) {
	if d.opts.CloneLock != nil {
		d.opts.CloneLock.Lock()
		defer d.opts.CloneLock.Unlock()
	}
	fn()
}

// ExploreScenario runs one exploration round of the named scenario
// against peerName, seeding from the live router's observed state.
func (d *DiCE) ExploreScenario(name, peerName string) (*Result, error) {
	sc, ok := LookupScenario(name)
	if !ok {
		return nil, fmt.Errorf("dice: unknown scenario %q (registered: %v)", name, ScenarioNames())
	}
	var (
		seed any
		err  error
	)
	d.withLock(func() { seed, err = sc.Seed(d.live, peerName) })
	if err != nil {
		return nil, err
	}
	return d.exploreRound(sc, peerName, seed)
}

// ExploreScenarioSeed runs one round of the named scenario from an
// explicitly provided seed (whose type must match the scenario's own).
func (d *DiCE) ExploreScenarioSeed(name, peerName string, seed any) (*Result, error) {
	sc, ok := LookupScenario(name)
	if !ok {
		return nil, fmt.Errorf("dice: unknown scenario %q (registered: %v)", name, ScenarioNames())
	}
	return d.exploreRound(sc, peerName, seed)
}

// ExplorePeer runs one UPDATE exploration round using the most recent
// UPDATE observed from the named peer as the seed input.
func (d *DiCE) ExplorePeer(peerName string) (*Result, error) {
	return d.ExploreScenario(ScenarioUpdate, peerName)
}

// ExploreSeed runs one UPDATE exploration round from an explicitly
// provided seed (normally ExplorePeer supplies the last observed one).
func (d *DiCE) ExploreSeed(peerName string, seed *bgp.Update) (*Result, error) {
	if len(seed.NLRI) == 0 {
		return nil, fmt.Errorf("dice: seed UPDATE for %q carries no NLRI", peerName)
	}
	return d.exploreRound(updateScenario{}, peerName, seed)
}

// exploreRound is the scenario-independent round machinery: checkpoint,
// clone-per-run isolated execution, optional memory accounting, optional
// cross-round state, then the scenario's oracles.
func (d *DiCE) exploreRound(sc Scenario, peerName string, seed any) (*Result, error) {
	start := time.Now()

	// Step 1: checkpoint the live node. Like the paper's fork(), this is
	// the only operation that touches the live process: one clone is
	// taken under the state lock ("the checkpoint process"), and all
	// exploration clones fork from it, never from the live router. The
	// clone shares the Loc-RIB copy-on-write, so the lock is held for
	// O(peers) work and the live router goes on taking updates.
	sink := netsim.NewCaptureSink()
	store := checkpoint.NewStore(d.opts.PageSize)
	var ckptRouter *router.Router
	d.withLock(func() { ckptRouter = d.live.Clone(sink) })
	var ckpt *checkpoint.Snapshot
	if d.opts.MeasureMemory {
		ckpt = store.TakeChunks("checkpoint", ckptRouter.EncodeStateChunks())
	}

	var (
		mu             sync.Mutex
		cloneOverheads []float64
	)

	// Step 3: the instrumented handler. Every run forks a fresh clone of
	// the checkpoint process (copy-on-write, O(peers) like fork()); its
	// messages go to the capture sink.
	handler := func(rc *concolic.RunContext) any {
		clone := ckptRouter.Clone(sink)
		out := sc.Execute(rc, clone, peerName, seed)
		if d.opts.MeasureMemory {
			snap := store.TakeChunks("clone", clone.EncodeStateChunks())
			over := snap.OverheadFraction(ckpt)
			snap.Release()
			mu.Lock()
			cloneOverheads = append(cloneOverheads, over)
			mu.Unlock()
		}
		return out
	}

	// Step 2: symbolic input template from the observed message, with
	// cross-round state attached in online (ReuseState) mode.
	engOpts := d.opts.Engine
	if engOpts.State == nil && d.opts.ReuseState {
		engOpts.State = d.stateFor(sc.Name(), peerName)
	}
	eng := concolic.NewEngine(handler, engOpts)
	if err := sc.Declare(eng, seed); err != nil {
		return nil, err
	}

	rep := eng.Explore()

	res := &Result{
		Scenario:         sc.Name(),
		Report:           rep,
		CapturedMessages: sink.Count(),
	}

	// Step 4: the scenario's oracles, run against the checkpoint-time
	// state (witness validation included).
	sc.Analyze(d, &Round{Peer: peerName, Seed: seed, Engine: eng, Checkpoint: ckptRouter}, res)

	// Memory accounting (only in MeasureMemory mode — serializing and
	// hashing the full state is itself costly): compare the checkpoint
	// against the live node's current state (it kept processing while we
	// explored).
	if d.opts.MeasureMemory {
		res.Memory.CheckpointPages = ckpt.Pages()
		res.Memory.CheckpointBytes = ckpt.Size()
		var liveNow *checkpoint.Snapshot
		d.withLock(func() {
			liveNow = store.TakeChunks("live-now", d.live.EncodeStateChunks())
		})
		res.Memory.CheckpointUniqueFraction = ckpt.UniqueFraction(liveNow)
		liveNow.Release()
		if n := len(cloneOverheads); n > 0 {
			var sum, max float64
			for _, o := range cloneOverheads {
				sum += o
				if o > max {
					max = o
				}
			}
			res.Memory.CloneOverheadMean = sum / float64(n)
			res.Memory.CloneOverheadMax = max
			res.Memory.ClonesMeasured = n
		}
		ckpt.Release()
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
