package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/client"
)

// A final {"done":true} line with no result is a malformed stream, not a
// successful one: Result must fail with a typed error instead of handing
// back a nil reply.
func TestSelectStreamDoneWithoutResult(t *testing.T) {
	for _, done := range []string{`{"done":true}`, `{"done":true,"result":null}`} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintln(w, `{"round":1,"node":4,"gain":2.5,"objective":2.5}`)
			fmt.Fprintln(w, done)
		}))
		c, err := client.New(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.SelectStream(context.Background(), client.SelectRequest{Graph: "g", K: 1, L: 2})
		if err != nil {
			t.Fatal(err)
		}
		rounds := 0
		for st.Next() {
			rounds++
		}
		res, err := st.Result()
		var ce *client.Error
		if res != nil || !errors.As(err, &ce) || ce.Code != client.CodeInternal {
			t.Errorf("%s: Result() = (%v, %v), want nil and a %s *client.Error", done, res, err, client.CodeInternal)
		}
		if rounds != 1 || st.Round().Node != 4 {
			t.Errorf("%s: %d rounds, last node %d; want 1 round picking node 4", done, rounds, st.Round().Node)
		}
		st.Close()
		ts.Close()
	}
}
