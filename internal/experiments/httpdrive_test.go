package experiments

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/server"
)

// TestHTTPDriversSurfaceServerErrors drives the serving experiments' HTTP
// helpers into real server errors and checks each returned error carries
// the status plus the code and message of the server's error envelope.
func TestHTTPDriversSurfaceServerErrors(t *testing.T) {
	g, err := graph.BarabasiAlbert(50, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Graphs: map[string]*graph.Graph{"g": g}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		call func() error
		want []string
	}{
		{
			name: "get unknown graph",
			call: func() error { return httpGet(ts.URL, "/v1/gain?graph=nope&L=4&R=5&nodes=1") },
			want: []string{"404", "not_found", `"nope"`},
		},
		{
			name: "post bad k",
			call: func() error { return httpPostJSON(ts.URL, "/v1/select", `{"graph":"g","k":-1,"L":4,"R":5}`) },
			want: []string{"400", "bad_request", "k=-1"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("want an error")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error %q does not carry %q", err, w)
				}
			}
		})
	}
}
