package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"securestore/internal/timestamp"
	"securestore/internal/wire"
)

// queueService models a single-server queue of capacity ops/s: the tail
// latency grows as base/(1-load) and nothing beyond capacity completes.
func queueService(capacity float64, base time.Duration) prober {
	return func(_ context.Context, rate float64) (probeOutcome, error) {
		out := probeOutcome{rate: rate, offered: rate, achieved: math.Min(rate, capacity), tailMs: math.Inf(1)}
		if rate < capacity {
			out.tailMs = ms(base) / (1 - rate/capacity)
		}
		out.pass = out.tailMs <= 100 && out.achieved >= minAchievedShare*out.offered
		return out, nil
	}
}

func TestFindSLORateFindsKnee(t *testing.T) {
	// tail = 5ms/(1-load) meets 100 ms up to load 0.95: the knee is at
	// 0.95 * 1234 ops/s.
	knee := 0.95 * 1234
	best, probes, err := findSLORate(context.Background(), 300, 2, 12, queueService(1234, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) != 12 {
		t.Fatalf("made %d probes, want 12", len(probes))
	}
	if best.offered > knee || best.offered < knee*0.98 {
		t.Fatalf("found %.1f ops/s, want within 2%% below the knee %.1f", best.offered, knee)
	}
	for _, p := range probes {
		if p.pass != (p.rate <= knee) {
			t.Fatalf("probe %v judged against knee %.1f", p, knee)
		}
	}
}

func TestFindSLORateSearchesDownward(t *testing.T) {
	best, _, err := findSLORate(context.Background(), 1000, 2, 16, queueService(100, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if knee := 0.99 * 100; best.offered > knee || best.offered < knee*0.9 {
		t.Fatalf("found %.1f ops/s, want just below %.1f", best.offered, knee)
	}
}

func TestFindSLORateRepeatsAFailedProbe(t *testing.T) {
	// Every rate fails its first probe, as under a passing stall of the
	// host; only a repeated failure counts.
	tried := make(map[float64]bool)
	service := queueService(1000, time.Millisecond)
	flaky := func(ctx context.Context, rate float64) (probeOutcome, error) {
		if !tried[rate] {
			tried[rate] = true
			return probeOutcome{rate: rate, offered: rate, achieved: rate, tailMs: math.Inf(1)}, nil
		}
		return service(ctx, rate)
	}
	best, _, err := findSLORate(context.Background(), 100, 2, 12, flaky)
	if err != nil {
		t.Fatal(err)
	}
	if best.offered < 400 {
		t.Fatalf("found %.1f ops/s: a single failed probe ended the search", best.offered)
	}
}

func TestFindSLORateTakesAFallingBehindProbeAtOnce(t *testing.T) {
	calls := 0
	behind := func(_ context.Context, rate float64) (probeOutcome, error) {
		calls++
		return probeOutcome{rate: rate, offered: rate, achieved: rate / 2, tailMs: math.Inf(1)}, nil
	}
	if _, made, _ := findSLORate(context.Background(), 100, 2, 3, behind); len(made) != 3 || calls != 3 {
		t.Fatalf("made %d probes in %d calls: a probe that fell behind was repeated", len(made), calls)
	}
	// The same probe while the hypervisor stole CPU is repeated.
	stolen := func(ctx context.Context, rate float64) (probeOutcome, error) {
		out, err := behind(ctx, rate)
		out.steal = quietSteal
		return out, err
	}
	if _, made, _ := findSLORate(context.Background(), 100, 2, 4, stolen); len(made) != 4 || made[0].rate != made[1].rate {
		t.Fatalf("probes %v: a failure under steal was not repeated", made)
	}
}

func TestFindSLORateNoPass(t *testing.T) {
	never := func(_ context.Context, rate float64) (probeOutcome, error) {
		return probeOutcome{rate: rate}, nil
	}
	if _, _, err := findSLORate(context.Background(), 100, 2, 4, never); !errors.Is(err, errNoPass) {
		t.Fatalf("got %v, want errNoPass when no probe passes", err)
	}
}

func TestJudgeProbeCountsFailuresAsUnbounded(t *testing.T) {
	var res phaseResult
	for i := 0; i < 1000; i++ {
		s := sample{intended: time.Duration(i) * time.Millisecond}
		s.done = s.intended + time.Millisecond
		if i%50 == 0 {
			s.err = errNotRun
		}
		res.samples = append(res.samples, s)
	}
	res.elapsed = time.Second
	out := judgeProbe(1000, res, time.Second)
	if !math.IsInf(out.tailMs, 1) || out.pass {
		t.Fatalf("20 failures in 1000 must put the p99 past any SLO: %v", out)
	}
}

// fakeCaller answers from a fixed reply and error.
type fakeCaller struct {
	resp wire.Response
	err  error
	got  wire.Request
}

func (f *fakeCaller) Origin() string { return "bench" }

func (f *fakeCaller) Call(_ context.Context, _ string, req wire.Request) (wire.Response, error) {
	f.got = req
	return f.resp, f.err
}

func TestTracingCallerPassesRepliesAndErrorsThrough(t *testing.T) {
	boom := errors.New("boom")
	cases := []*fakeCaller{
		{resp: wire.MetaResp{Has: true, Stamp: timestamp.Stamp{Time: 7}}},
		{err: boom},
	}
	for _, fake := range cases {
		rec := newSpanRecorder()
		c := &tracingCaller{next: fake, rec: rec}
		ctx, id := rec.withOp(context.Background())
		req := wire.MetaReq{Client: "bench", Item: "k00001"}
		resp, err := c.Call(ctx, "s01", req)
		if !reflect.DeepEqual(resp, fake.resp) || err != fake.err {
			t.Fatalf("got (%v, %v), want (%v, %v) unchanged", resp, err, fake.resp, fake.err)
		}
		if !reflect.DeepEqual(fake.got, wire.Request(req)) {
			t.Fatalf("request changed on the way: %v", fake.got)
		}
		if c.Origin() != "bench" {
			t.Fatalf("origin %q", c.Origin())
		}
		spans := rec.take()
		if len(spans) != 1 || spans[0].Name != "rpc.meta" || spans[0].Parent != id || spans[0].Peer != "s01" || spans[0].Err != (fake.err != nil) {
			t.Fatalf("span %+v, want one rpc.meta under op %d", spans, id)
		}
	}
}

func TestUnionWithinCountsOverlapOnce(t *testing.T) {
	span := interval{0, 30}
	parts := []interval{{5, 15}, {0, 10}, {20, 25}, {24, 40}, {-5, 1}}
	// [0,15] + [20,30] after clipping to the span.
	if got, want := unionWithin(span, parts), time.Duration(25); got != want {
		t.Fatalf("union %v, want %v", got, want)
	}
	if got := unionWithin(span, nil); got != 0 {
		t.Fatalf("union of nothing %v", got)
	}
}

func TestBreakdownSelfTimeUsesUnion(t *testing.T) {
	// A write of 10 units whose two quorum RPCs overlap on [2,8]: self time
	// is 10 - 6 = 4, not 10 - (5+4).
	spans := []span{
		{ID: 1, Op: 1, Name: "client.write", Start: 0, End: 10},
		{ID: 2, Parent: 1, Op: 1, Name: "rpc.write", Start: 2, End: 7},
		{ID: 3, Parent: 1, Op: 1, Name: "rpc.write", Start: 4, End: 8, Err: true},
		{ID: 4, Name: "rpc.gossip.push", Start: 0, End: 10},
	}
	b := breakdown(spans)
	if len(b) != 1 || b[0].read || b[0].self != 4 || b[0].rpcs != 2 || b[0].rpcErrs != 1 {
		t.Fatalf("breakdown %+v", b)
	}
}

func TestRecorderFlagsStaleRead(t *testing.T) {
	vm := newValueMaker(1, 64)
	item := itemName(3)
	v1, v2 := vm.value(item, 1), vm.value(item, 2)
	t1, t2 := timestamp.Stamp{Time: 1}, timestamp.Stamp{Time: 2}

	clean := newRecorder()
	clean.write("s0", item, t1, v1, nil)
	clean.write("s0", item, t2, v2, nil)
	clean.read("s0", item, t2, v2)
	if v := clean.violations(); len(v) != 0 {
		t.Fatalf("clean history flagged: %v", v)
	}

	stale := newRecorder()
	stale.write("s0", item, t1, v1, nil)
	stale.write("s0", item, t2, v2, nil)
	stale.read("s0", item, t1, v1) // below the session's own write
	if v := stale.violations(); len(v) == 0 {
		t.Fatal("stale read not flagged")
	}
}

func TestRecorderFlagsBytesNeverWritten(t *testing.T) {
	vm := newValueMaker(1, 64)
	a, b := itemName(1), itemName(2)
	r := newRecorder()
	r.write("s0", a, timestamp.Stamp{Time: 1}, vm.value(a, 1), nil)
	r.read("s1", a, timestamp.Stamp{Time: 1}, vm.value(b, 1))
	if v := r.violations(); len(v) < 2 {
		t.Fatalf("want an integrity and a foreign-item violation, got %v", v)
	}
}

func TestMakePlanIsAFunctionOfTheSeed(t *testing.T) {
	w, err := workloadByName("small-read")
	if err != nil {
		t.Fatal(err)
	}
	a := w.makePlan(7, 1, 500, time.Second)
	b := w.makePlan(7, 1, 500, time.Second)
	c := w.makePlan(8, 1, 500, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different plans")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same plan")
	}
	reads := 0
	for _, o := range a.ops {
		if o.read {
			reads++
		}
		if o.item < 0 || o.item >= w.items {
			t.Fatalf("item %d out of range", o.item)
		}
	}
	if frac := float64(reads) / float64(len(a.ops)); frac < 0.9 || frac > 0.99 {
		t.Fatalf("read fraction %.3f, want about 0.95", frac)
	}
}

func TestOpenLoopChargesFromIntendedTime(t *testing.T) {
	p := plan{
		ops:      []op{{read: true}, {}, {}},
		arrivals: []time.Duration{0, time.Millisecond, 2 * time.Millisecond},
	}
	// One session and 20 ms per op: the later ops queue behind the first,
	// and their latency includes that wait.
	res := runOpenLoop(context.Background(), p, 1, 0, func(context.Context, int, op) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if len(res.samples) != 3 || res.failures() != 0 {
		t.Fatalf("samples %+v", res.samples)
	}
	last := res.samples[2]
	if last.latency() < 40*time.Millisecond || last.queueWait() < 30*time.Millisecond {
		t.Fatalf("third op latency %v queue wait %v: queueing not charged", last.latency(), last.queueWait())
	}
	if !res.samples[0].read || res.samples[1].read {
		t.Fatal("op kinds lost")
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 0.99}, {1000, 0.99}, {500, 0.98}, {100, 0.9}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metrics and the
// benchmark definition in step: --trace 0 prints exactly end_to_end,
// --trace 1 exactly per_layer, with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	type def struct{ Name, Unit string }
	var doc struct {
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(r *result) []def {
		var out []def
		for _, m := range r.metrics {
			out = append(out, def{m.name, m.unit})
		}
		return out
	}
	var e2e, layers result
	endToEndMetrics(&e2e, []float64{1}, []usage{{}}, 0)
	layerMetrics(&layers, tracedInputs{w: workloads[0]})
	if got := names(&e2e); !reflect.DeepEqual(got, doc.EndToEnd) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json %v", got, doc.EndToEnd)
	}
	if got := names(&layers); !reflect.DeepEqual(got, doc.PerLayer) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json %v", got, doc.PerLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}
