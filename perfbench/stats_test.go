package main

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"testing"
	"time"

	"dice/internal/core"
	"dice/internal/topo"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{
		{19, 50, false}, // the median has only 9 above it
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{99, 75, true},
		{100, 90, true},
		{999, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g ok=%t, want p%g ok=%t", c.n, p, ok, c.p, c.ok)
		}
	}
	// The rule itself, for every n: the chosen percentile has at least
	// minBeyond samples above it and the next one up on the ladder does
	// not.
	for n := 20; n <= 3000; n++ {
		p, _ := tailPercentile(n)
		if beyond := n - rank(p, n); beyond < minBeyond {
			t.Fatalf("n=%d: p%g has %d samples beyond", n, p, beyond)
		}
		i := slices.Index(tailLadder, p)
		if i > 0 && n-rank(tailLadder[i-1], n) >= minBeyond {
			t.Fatalf("n=%d: p%g chosen but p%g also has %d beyond", n, p, tailLadder[i-1], minBeyond)
		}
	}
}

func TestSamplesTailValue(t *testing.T) {
	var s samples
	for i := 1; i <= 40; i++ {
		s.add(float64(i))
	}
	v, p, ok := s.tail()
	if v != 30 || p != 75 || !ok {
		t.Fatalf("tail of 1..40 = %g at p%g ok=%t, want 30 at p75", v, p, ok)
	}
	if got := s.pct(100); got != 40 {
		t.Fatalf("p100 = %g, want 40", got)
	}
}

func TestWindowedMedianOfWindows(t *testing.T) {
	var s samples
	// Three windows of four: medians (nearest rank) 2, 20 and 3, plus a
	// short trailing window that is dropped.
	for _, x := range []float64{1, 2, 3, 4, 10, 20, 30, 40, 1, 3, 5, 7, 1000} {
		s.add(x)
	}
	v, n := s.windowed(4, (*samples).p50)
	if v != 3 || n != 3 {
		t.Fatalf("windowed p50 = %g over %d windows, want 3 over 3", v, n)
	}
	// Fewer samples than one window: the one short window counts.
	short := samples{v: []float64{5, 1, 3}}
	if v, n := short.windowed(10, (*samples).p50); v != 3 || n != 1 {
		t.Fatalf("short windowed p50 = %g over %d, want 3 over 1", v, n)
	}
	// Windowing must not disturb arrival order.
	if s.v[0] != 1 || s.v[12] != 1000 {
		t.Fatal("windowed reordered the samples")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %g", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median even = %g", got)
	}
	if xs[0] != 4 {
		t.Fatal("median reordered its input")
	}
}

// fakeClock drives a pacer without sleeping: every sleep overshoots by a
// fixed amount, like a coarse OS timer.
type fakeClock struct {
	now       time.Time
	overshoot time.Duration
	sleeps    int
}

func (c *fakeClock) pacer(interval time.Duration) *pacer {
	return &pacer{
		start:    c.now,
		interval: interval,
		now:      func() time.Time { return c.now },
		sleep: func(d time.Duration) {
			c.sleeps++
			c.now = c.now.Add(d + c.overshoot)
		},
	}
}

// TestOpenLoopChargesStallsToQueuedUpdates runs an open loop where one
// update stalls for 10 ms. The updates due during the stall are sent
// late, without sleeping, and each one's latency runs from when it was
// due — not from when the generator got round to it.
func TestOpenLoopChargesStallsToQueuedUpdates(t *testing.T) {
	ms := func(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }
	c := &fakeClock{now: time.Unix(0, 0), overshoot: ms(0.5)}
	p := c.pacer(ms(2))
	service := func(i int) time.Duration {
		if i == 1 {
			return ms(10)
		}
		return ms(0.1)
	}
	type op struct{ late, latency float64 }
	var got []op
	for i := 0; i < 8; i++ {
		due, late := p.wait(i)
		c.now = c.now.Add(service(i))
		got = append(got, op{
			late:    float64(late) / float64(time.Millisecond),
			latency: float64(c.now.Sub(due)) / float64(time.Millisecond),
		})
	}
	want := []op{
		{0, 0.1},    // due at 0, sent at once
		{0.5, 10.5}, // slept, woke 0.5 late, then stalled
		{8.5, 8.6},  // due at 4, sent at 12.5
		{6.6, 6.7},  // due at 6
		{4.7, 4.8},  // due at 8
		{2.8, 2.9},  // due at 10
		{0.9, 1.0},  // due at 12, sent at 12.9
		{0.5, 0.6},  // due at 14: caught up, slept again
	}
	const eps = 1e-9
	for i := range want {
		if d := got[i].late - want[i].late; d > eps || d < -eps {
			t.Errorf("update %d late %.3f ms, want %.3f", i, got[i].late, want[i].late)
		}
		if d := got[i].latency - want[i].latency; d > eps || d < -eps {
			t.Errorf("update %d latency %.3f ms, want %.3f", i, got[i].latency, want[i].latency)
		}
	}
	if c.sleeps != 2 {
		t.Errorf("generator slept %d times, want 2 (never while behind schedule)", c.sleeps)
	}
}

func TestTallyCountsFailedChecks(t *testing.T) {
	var empty tally
	if empty.correct() {
		t.Fatal("a run that attempted nothing must not read as correct")
	}
	var ok tally
	ok.record(nil)
	ok.record(nil)
	if !ok.correct() || ok.attempted != 2 || ok.failed != 0 {
		t.Fatalf("clean tally = %+v correct=%t", ok, ok.correct())
	}
	var bad tally
	first := errors.New("snapshot differs")
	bad.record(nil)
	bad.record(first)
	bad.record(errors.New("later"))
	if bad.correct() || bad.attempted != 3 || bad.failed != 2 || bad.firstErr != first {
		t.Fatalf("failing tally = %+v correct=%t", bad, bad.correct())
	}
}

func TestResultLine(t *testing.T) {
	o := newOutcome()
	o.record(nil)
	o.record(errors.New("check failed"))
	for i, m := range endToEnd {
		o.e2e[m.name] = float64(i + 1)
	}
	res, err := resultFor(o, false)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(back))
	for k := range back {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("result keys %v", keys)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}

	delete(o.e2e, "setup_s")
	if _, err := resultFor(o, false); !errors.Is(err, errMissingMetric) {
		t.Fatalf("missing end-to-end metric: err = %v", err)
	}
	traced, err := resultFor(o, true)
	if err != nil || len(traced.Metrics) != len(perLayer) {
		t.Fatalf("traced result has %d metrics (err %v), want %d", len(traced.Metrics), err, len(perLayer))
	}
}

// TestBenchmarkFileMatches holds BENCHMARK.json to the metrics and
// workloads this program reports.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, specs []metricSpec) {
		if len(got) != len(specs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(specs))
			return
		}
		for i, m := range specs {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
}

// TestPhasedRoundMatchesRound drives a small generated fabric phase by
// phase, as the traced federated-as200 run does, and requires the same
// snapshot as FederatedExperiment.Round.
func TestPhasedRoundMatchesRound(t *testing.T) {
	tp, _, err := topo.Generate(topo.Spec{Seed: 3, Nodes: 30, ExploreTargets: 4, PolicyClauses: 4})
	if err != nil {
		t.Fatal(err)
	}
	fo := roundOptions(4)
	fo.Engine.MaxRuns = 200
	fe, err := core.NewFederatedExperiment(tp, fo)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fe.Round()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Violations) == 0 {
		t.Fatal("fixture round found no violation; the comparison would be vacuous")
	}
	boundary, err := tp.BoundaryCommunity()
	if err != nil {
		t.Fatal(err)
	}
	res, phases, err := phasedRound(fe, fo, boundary, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Snapshot(), ref.Snapshot(); !slices.Equal(got, want) {
		t.Fatalf("phased round snapshot differs from Round's:\n got %d lines\nwant %d lines", len(got), len(want))
	}
	for i, d := range phases {
		if d <= 0 {
			t.Errorf("phase %s not timed", phaseNames[i])
		}
	}
}
