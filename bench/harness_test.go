package main

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"reflect"
	"testing"
	"time"

	rwdom "repro"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 99.9},
		{9999, 99},
		{1000, 99},
		{999, 95},
		{200, 95},
		{100, 90},
		{50, 80},
		{40, 75},
		{20, 50},
		{19, 0},
	}
	for _, c := range cases {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 0 && beyond(c.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = %g leaves %d samples beyond, want >= 10", c.n, got, beyond(c.n, got))
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 8, 7, 10, 9}
	for p, want := range map[float64]float64{50: 5, 90: 9, 91: 10, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%g) = %g, want %g", p, got, want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile reordered its input")
	}
}

func TestScheduleAndMixAreSeeded(t *testing.T) {
	pool := seedSets(rand.New(rand.NewPCG(1, 2)), servePool, serveSetSize, 1000)
	draw := func(seed uint64) ([]time.Duration, []readReq) {
		r := rand.New(rand.NewPCG(seed, 0x5e4e))
		dues := poissonSchedule(r, serveRate, time.Second)
		next := serveMix(r, pool, 1000)
		reqs := make([]readReq, 500)
		for i := range reqs {
			reqs[i] = next()
		}
		return dues, reqs
	}
	d1, q1 := draw(7)
	d2, q2 := draw(7)
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(q1, q2) {
		t.Fatal("the same seed gave different schedules or mixes")
	}
	d3, _ := draw(8)
	if reflect.DeepEqual(d1, d3) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(d1); n < serveRate*9/10 || n > serveRate*11/10 {
		t.Errorf("%d arrivals in one second at %d/s", n, serveRate)
	}
	for i := 1; i < len(d1); i++ {
		if d1[i] < d1[i-1] {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
}

func TestMixProportions(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	pool := seedSets(r, servePool, serveSetSize, 1000)
	for _, c := range []struct {
		name string
		next func() readReq
		want map[readOp]float64
		zipf bool // seed sets Zipf-ranked over the pool, else uniform
	}{
		{"serve-hot", serveMix(r, pool, 1000), map[readOp]float64{opGain: 0.65, opTopGains: 0.25, opObjective: 0.10}, true},
		{"mutate-mixed", mutateMix(r, pool[:mutSets], 1000), map[readOp]float64{opGain: 0.50, opTopGains: 0.40, opSelect: 0.10}, false},
	} {
		const draws = 100000
		counts := map[readOp]int{}
		setHits := map[*int]int{}
		for i := 0; i < draws; i++ {
			q := c.next()
			counts[q.op]++
			setHits[&q.set[0]]++
			if q.op == opGain && len(q.nodes) != 2 {
				t.Fatalf("%s: gain request with %d candidates", c.name, len(q.nodes))
			}
		}
		for op, want := range c.want {
			if got := float64(counts[op]) / draws; got < want-0.01 || got > want+0.01 {
				t.Errorf("%s: %s share %.3f, want %.2f", c.name, opNames[op], got, want)
			}
		}
		if c.zipf {
			// Zipf ranks: the first set of the pool is the most requested.
			top := setHits[&pool[0][0]]
			for i := 1; i < len(pool); i++ {
				if setHits[&pool[i][0]] > top {
					t.Errorf("set %d drawn %d times, more than rank 0's %d", i, setHits[&pool[i][0]], top)
				}
			}
		} else if len(setHits) != mutSets {
			t.Errorf("%s: %d of %d seed sets drawn", c.name, len(setHits), mutSets)
		}
	}
}

func TestLatencyRunsFromEarlierOfDueAndSent(t *testing.T) {
	ms := time.Millisecond
	if got := latencyFrom(10*ms, 12*ms, 20*ms); got != 10*ms {
		t.Errorf("late send: latency %v, want 10ms (from due)", got)
	}
	if got := latencyFrom(10*ms, 8*ms, 20*ms); got != 12*ms {
		t.Errorf("early send: latency %v, want 12ms (from sent)", got)
	}
}

func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	// One sender; the first request stalls 60ms, so the second (due at
	// 10ms) goes out late. Its latency counts the stall; the generator's own
	// lag does not, because the sender was busy, not late.
	dues := []time.Duration{0, 10 * time.Millisecond}
	res, err := openLoop(context.Background(), dues, 1, func(ctx context.Context, _, i int) error {
		if i == 0 {
			time.Sleep(60 * time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results, want 2", len(res))
	}
	second := res[1]
	if second.sent < 60*time.Millisecond {
		t.Fatalf("second request sent at %v, before the first finished", second.sent)
	}
	if l := second.latency(); l < 50*time.Millisecond {
		t.Errorf("second request latency %v does not include the 50ms it waited past due", l)
	}
	if second.lag > 5*time.Millisecond {
		t.Errorf("generator lag %v charged for a busy sender", second.lag)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Start: 20 * ms, End: 50 * ms},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 5, Parent: 2, Start: 12 * ms, End: 14 * ms},  // grandchild
		{ID: 6, Name: "other", Start: 0, End: 5 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 50 * ms, 2: 18 * ms, 3: 30 * ms, 5: 2 * ms, 6: 5 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestTracerIsInertWhenNil(t *testing.T) {
	var tr *Tracer
	a := tr.Begin("x", 0, 0)
	a.End(1)
	if tr.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	if ctx := withSpan(context.Background(), a); ctx != context.Background() {
		t.Fatal("inert span changed the context")
	}
	live := newTracer()
	p := live.Begin("parent", 0, 7)
	c := live.Begin("child", p.id, 7)
	c.End(3)
	p.End(0)
	spans := live.Spans()
	if len(spans) != 2 || spans[0].Parent != spans[1].ID || spans[0].N != 3 || spans[1].Req != 7 {
		t.Fatalf("spans %+v", spans)
	}
	if ref, ok := spanFrom(withSpan(context.Background(), p)); !ok || ref.id != p.id || ref.req != 7 {
		t.Fatalf("span not carried by the context: %+v %v", ref, ok)
	}
}

func TestToggleDeltasAreValidToggles(t *testing.T) {
	g, err := rwdom.GeneratePowerLaw(300, 1200, 5)
	if err != nil {
		t.Fatal(err)
	}
	deltas := toggleDeltas(g, rand.New(rand.NewPCG(9, 9)), 41, mutToggleEdges)
	if len(deltas) != 41 {
		t.Fatalf("%d deltas, want 41", len(deltas))
	}
	again := toggleDeltas(g, rand.New(rand.NewPCG(9, 9)), 41, mutToggleEdges)
	if !reflect.DeepEqual(deltas, again) {
		t.Fatal("the same seed gave different deltas")
	}
	cur := g
	for i, d := range deltas {
		if i%2 == 0 {
			if len(d.AddEdges) != mutToggleEdges || len(d.RemoveEdges) != 0 {
				t.Fatalf("delta %d is not a pure add of %d edges", i, mutToggleEdges)
			}
			for _, e := range d.AddEdges {
				if g.HasEdge(e.U, e.V) {
					t.Fatalf("delta %d adds existing edge %v", i, e)
				}
			}
		} else if !reflect.DeepEqual(d.RemoveEdges, deltas[i-1].AddEdges) || len(d.AddEdges) != 0 {
			t.Fatalf("delta %d does not remove exactly the edges delta %d added", i, i-1)
		}
		next, _, err := cur.ApplyDelta(d)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		cur = next
		if want := g.M() + mutToggleEdges*(1-i%2); cur.M() != want {
			t.Fatalf("after delta %d: %d edges, want %d", i, cur.M(), want)
		}
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloadOrder)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
