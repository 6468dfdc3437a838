package main

import (
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"dice/internal/core"
	"dice/internal/dist"
	"dice/internal/telemetry"
	"dice/internal/topo"
)

// rpcMethods are the wire methods a distributed round spends its time
// in; the traced run reports calls and client-side latency for each.
var rpcMethods = []string{
	dist.MethodExplore,
	dist.MethodInjectWitnessBatch,
	dist.MethodQueryOracle,
	dist.MethodShadowOpen,
	dist.MethodShadowClose,
}

// countingConn tallies the bytes crossing one coordinator connection.
type countingConn struct {
	io.ReadWriteCloser
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// countingDialer makes every connection it dials feed one byte counter.
type countingDialer struct {
	inner dist.Dialer
	bytes *atomic.Int64
}

func (d countingDialer) Dial() (io.ReadWriteCloser, error) {
	conn, err := d.inner.Dial()
	if err != nil {
		return nil, err
	}
	return countingConn{ReadWriteCloser: conn, bytes: d.bytes}, nil
}

// inProcessSnapshot runs one in-process federated round on t — the
// reference a distributed round must reproduce.
func inProcessSnapshot(t *core.Topology, fo core.FederatedOptions) ([]string, error) {
	fe, err := core.NewFederatedExperiment(t, fo)
	if err != nil {
		return nil, err
	}
	res, err := fe.Round()
	if err != nil {
		return nil, err
	}
	return res.Snapshot(), nil
}

// distributed-as200: federated rounds over the wire protocol to one
// agent per node, each served over an in-memory pipe from one shared
// fabric, with no replicas. Policies have no extra clauses and up to 16
// witnesses propagate, so the coordinator's relay and the agents'
// serving dominate and exploration is light.
func runDistributed(opts options) (*outcome, error) {
	o := newOutcome()
	fo := roundOptions(16)
	var (
		reg   *telemetry.Registry
		wire  atomic.Int64
		copts []dist.ConnOption
	)
	if opts.trace {
		reg = telemetry.NewRegistry()
		copts = append(copts, dist.WithTelemetry(dist.NewMetrics(reg)))
	}
	var wireSetup int64 // bytes on the wire before the timed rounds

	// Twelve fabrics: a distributed round's allocation varies more from
	// one topology to the next than an in-process round's.
	err := runFabrics(o, opts, 12, func(seed int64, l *roundLog) (fabric, error) {
		start := time.Now()
		t, _, err := topo.Generate(fabricSpec(seed, 0))
		if err != nil {
			return fabric{}, err
		}
		generated := time.Now()
		agents, err := dist.NewSharedAgents(t)
		if err != nil {
			return fabric{}, err
		}
		built := time.Now()
		dialers := make([]dist.Dialer, 0, len(t.Nodes))
		for _, n := range t.Nodes {
			var d dist.Dialer = dist.Loopback{Agent: agents[n.Name]}
			if opts.trace {
				d = countingDialer{inner: d, bytes: &wire}
			}
			dialers = append(dialers, d)
		}
		co := copts
		if opts.trace && len(l.setups) == 0 {
			// Per-RPC spans run to tens of thousands a round: record them
			// for the first fabric only, so the trace stays readable.
			co = append(co[:len(co):len(co)], dist.WithTracer(opts.tracer))
		}
		coord, err := dist.Connect(t, fo, dialers, co...)
		if err != nil {
			return fabric{}, err
		}
		end := time.Now()
		wireSetup = wire.Load()
		l.setups = append(l.setups, end.Sub(start).Seconds())
		l.addLayer("topo.generate_s", generated.Sub(start).Seconds())
		l.addLayer("core.build_s", built.Sub(generated).Seconds())
		l.addLayer("dist.connect_s", end.Sub(built).Seconds())
		opts.tracer.Add("setup", "topo.Generate", start, generated.Sub(start))
		opts.tracer.Add("setup", "dist.NewSharedAgents", generated, built.Sub(generated))
		opts.tracer.Add("setup", "dist.Connect", built, end.Sub(built))

		// The in-process reference round runs outside setup_s; its fabric
		// is garbage again before the heap is measured. It also warms the
		// code both backends share, so no distributed warm-up round runs.
		want, err := inProcessSnapshot(t, fo)
		if err != nil {
			coord.Close()
			return fabric{}, err
		}
		round := func() error {
			res, err := coord.Round()
			if err != nil {
				return err
			}
			for _, tr := range res.Targets {
				if x := tr.Explore; x != nil {
					l.stats.runs += x.Runs
					l.stats.paths += x.NewPaths
					l.stats.solverCalls += x.SolverCalls
					l.stats.solverSat += x.SolverSat
					l.stats.cacheHits += x.CacheHits
				}
				l.stats.findings += len(tr.Findings)
			}
			l.stats.witnesses += res.WitnessesInjected
			l.stats.steps += res.PropagationSteps
			l.stats.violations += len(res.Violations)
			if !slices.Equal(res.Snapshot(), want) {
				return fmt.Errorf("distributed round snapshot differs from the in-process round's (backend parity defect)")
			}
			return nil
		}
		return fabric{round: round, close: func() { coord.Close() }}, nil
	})
	if err != nil {
		return nil, err
	}
	if opts.trace {
		// Every explore, witness and shadow call is made by a timed round:
		// set-up only says hello.
		calls := reg.CounterVec("dice_rpc_client_calls_total", "", "method")
		latency := reg.HistogramVec("dice_rpc_client_latency_seconds", "", nil, "method")
		rounds := float64(o.attempted)
		for _, m := range rpcMethods {
			o.layer["dist.calls."+m] = float64(calls.With(m).Value()) / rounds
			o.layer["dist.rpc_ms."+m] = latency.With(m).Sum() * 1000 / rounds
		}
		o.layer["dist.wire_bytes_per_round"] = float64(wire.Load()-wireSetup) / rounds
	}
	return o, nil
}
