package shard

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/testleak"
)

// faultyConn is a Conn whose failAt-th PartialGain call (1-based, counted
// across every caller) fails with an internal error.
type faultyConn struct {
	Conn
	failAt int64
	calls  atomic.Int64
	failed atomic.Bool
}

func (c *faultyConn) PartialGain(ctx context.Context, req engine.PartialGainRequest) (*engine.PartialGainResult, error) {
	if c.calls.Add(1) == c.failAt {
		c.failed.Store(true)
		return nil, &engine.Error{Code: engine.CodeInternal, Message: "injected worker fault"}
	}
	return c.Conn.PartialGain(ctx, req)
}

// newFaultyPair builds a 2-shard coordinator whose second shard fails its
// failAt-th partial-gain call.
func newFaultyPair(t *testing.T, g *graph.Graph, failAt int64) (*Coordinator, *faultyConn) {
	t.Helper()
	graphs := map[string]*graph.Graph{"test": g}
	var conns []Conn
	for i := 0; i < 2; i++ {
		eng, err := engine.New(engine.Config{Graphs: graphs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		conns = append(conns, NewLocalConn(eng, fmt.Sprintf("local/%d", i)))
	}
	faulty := &faultyConn{Conn: conns[1], failAt: failAt}
	conns[1] = faulty
	co, err := New(Config{Graphs: graphs}, conns)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co, faulty
}

// A shard failure mid-selection surfaces as the shard's own error — not the
// draining collateral the abort causes in the other scatters — no round is
// streamed after it, and nothing the run started outlives it.
func TestSelectShardFailure(t *testing.T) {
	testleak.Check(t)
	g := testGraph(t, 300, 4)
	for _, strategy := range []engine.Strategy{engine.Lazy, engine.Plain} {
		for _, workers := range []int{1, 2} {
			for _, failAt := range []int64{1, 2, 4} {
				name := fmt.Sprintf("%v workers=%d failAt=%d", strategy, workers, failAt)
				req := engine.SelectRequest{Graph: "test", K: 5, L: 4, R: 20, Seed: 3,
					Strategy: strategy, Workers: workers}

				co, faulty := newFaultyPair(t, g, failAt)
				if _, err := co.Select(context.Background(), req); engine.CodeOf(err) != engine.CodeInternal {
					t.Fatalf("%s: Select err %v (code %q), want internal", name, err, engine.CodeOf(err))
				}
				if !faulty.failed.Load() {
					t.Fatalf("%s: the injected fault never fired", name)
				}

				co, faulty = newFaultyPair(t, g, failAt)
				_, err := co.SelectStream(context.Background(), req, func(rd engine.Round) error {
					if faulty.failed.Load() {
						t.Errorf("%s: round %d streamed after the shard failed", name, rd.Round)
					}
					return nil
				})
				if engine.CodeOf(err) != engine.CodeInternal {
					t.Fatalf("%s: SelectStream err %v (code %q), want internal", name, err, engine.CodeOf(err))
				}
			}
		}
	}
}
