package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/server"
)

// Shared HTTP drivers for the serving experiments (serving.go,
// gainserving.go): issue requests against an rwdomd handler under test and
// measure aggregate throughput.

// httpGet issues one GET and fails on any non-200, surfacing the server's
// error code and message.
func httpGet(base, path string) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	return checkResponse(path, resp)
}

// httpPostJSON posts a JSON body and fails on any non-200, surfacing the
// server's error code and message.
func httpPostJSON(base, path, body string) error {
	resp, err := http.Post(base+path, "application/json", bytes.NewBufferString(body))
	if err != nil {
		return err
	}
	return checkResponse(path, resp)
}

// checkResponse closes resp and turns a non-200 into an error carrying the
// status and the code and message of the server's error envelope.
func checkResponse(path string, resp *http.Response) error {
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	var e server.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return fmt.Errorf("%s: %d %s: %s", path, resp.StatusCode, e.Error.Code, e.Error.Message)
}

// qpsSweep issues total requests, striped across clients concurrent
// goroutines (request i goes to client i mod clients), and returns the
// aggregate queries/sec. The first error aborts that client's stripe and
// fails the sweep.
func qpsSweep(clients, total int, request func(i int) error) (float64, error) {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	t0 := time.Now()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := cl; i < total; i += clients {
				if err := request(i); err != nil {
					errs[cl] = err
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(total) / time.Since(t0).Seconds(), nil
}
