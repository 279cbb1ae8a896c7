package latency

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSnapshotQuantilesAndOverflow(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(true); s.Count != 0 || s.P50MS != 0 || s.MeanMS != 0 || len(s.Buckets) != numBounds+1 {
		t.Fatalf("empty snapshot %+v", s)
	}
	for i := 0; i < 98; i++ {
		h.Observe(700 * time.Microsecond) // the 1 ms bucket
	}
	h.Observe(3 * time.Second) // the 5 s bucket
	h.Observe(time.Minute)     // +Inf
	s := h.Snapshot(false)
	if s.Count != 100 || s.P50MS != 1 || s.P95MS != 1 || s.P99MS != 5000 || s.Buckets != nil {
		t.Fatalf("snapshot %+v", s)
	}
	h.Observe(time.Minute)
	h.Observe(time.Minute)
	if p99 := h.Snapshot(false).P99MS; p99 != -1 {
		t.Fatalf("p99 in the overflow bucket = %v, want -1", p99)
	}
	b := h.Snapshot(true).Buckets
	if last := b[len(b)-1]; last.LeMS != -1 || last.Count != 102 {
		t.Fatalf("overflow bucket %+v", last)
	}
}

// A snapshot taken without buckets carries no buckets key in JSON, the
// shape /stats merge_latency has always had.
func TestSnapshotJSONOmitsUnrequestedBuckets(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	out, err := json.Marshal(h.Snapshot(false))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"count":1,"mean_ms":1,"p50_ms":1,"p95_ms":1,"p99_ms":1}`; string(out) != want {
		t.Fatalf("JSON %s, want %s", out, want)
	}
	out, _ = json.Marshal(h.Snapshot(true))
	if !strings.Contains(string(out), `"buckets":[{"le_ms":0.5,"count":0},{"le_ms":1,"count":1}`) {
		t.Fatalf("JSON with buckets %s", out)
	}
}
