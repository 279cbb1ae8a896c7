package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// SelectStream iterates the NDJSON round events of POST /v1/select?stream=1.
// The usage pattern mirrors bufio.Scanner:
//
//	for st.Next() {
//		rd := st.Round()
//		...
//	}
//	res, err := st.Result()
//
// The rounds concatenate bit-identically into Result()'s nodes and gains —
// the daemon's streaming path is the blocking path with a tap, not a
// different algorithm.
type SelectStream struct {
	body   io.ReadCloser
	sc     *bufio.Scanner
	cur    Round
	result *SelectResponse
	err    error
	done   bool
}

// streamLine is the union of the three NDJSON line shapes: a Round (Node
// is a pointer here so a round line can be told from the others), a
// StreamDone, or an ErrorResponse.
type streamLine struct {
	Round
	Node *int `json:"node"`
	StreamDone
	Error *ErrorBody `json:"error"`
}

// SelectStream starts a streamed selection. Drain responses are retried
// like every other call; the returned stream must be Closed.
func (c *Client) SelectStream(ctx context.Context, req SelectRequest) (*SelectStream, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	u := c.base.JoinPath("/v1/select")
	u.RawQuery = url.Values{"stream": {"1"}}.Encode()
	resp, err := c.do(ctx, func() (*http.Request, error) {
		hr, err := http.NewRequest(http.MethodPost, u.String(), bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		hr.Header.Set("Content-Type", "application/json")
		return hr, nil
	})
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	return &SelectStream{body: resp.Body, sc: sc}, nil
}

// Next advances to the next round event. It returns false when the stream
// has delivered its final line (result or error) or failed; inspect
// Result() afterwards.
func (s *SelectStream) Next() bool {
	if s.done {
		return false
	}
	for s.sc.Scan() {
		line := bytes.TrimSpace(s.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev streamLine
		if err := json.Unmarshal(line, &ev); err != nil {
			s.err = fmt.Errorf("client: bad stream line %q: %w", line, err)
			s.done = true
			return false
		}
		switch {
		case ev.Error != nil:
			s.err = &Error{Code: ev.Error.Code, Message: ev.Error.Message, HTTPStatus: http.StatusOK}
			s.done = true
			return false
		case ev.Done:
			s.done = true
			s.result = ev.Result
			if s.result == nil {
				s.err = &Error{Code: CodeInternal, Message: "select stream finished without a result", HTTPStatus: http.StatusOK}
			}
			return false
		case ev.Node != nil:
			s.cur = ev.Round
			s.cur.Node = *ev.Node
			return true
		}
	}
	s.done = true
	if err := s.sc.Err(); err != nil {
		s.err = err
	} else if s.err == nil && s.result == nil {
		s.err = io.ErrUnexpectedEOF
	}
	return false
}

// Round returns the event Next most recently advanced to.
func (s *SelectStream) Round() Round { return s.cur }

// Result returns the final blocking-shape reply once Next has returned
// false, or the terminal error (a mid-stream *Error, a CodeInternal *Error
// when the final line carries no result, a transport failure, or
// io.ErrUnexpectedEOF for a truncated stream).
func (s *SelectStream) Result() (*SelectResponse, error) {
	if s.err != nil {
		return nil, s.err
	}
	if !s.done {
		return nil, fmt.Errorf("client: Result called before the stream finished")
	}
	return s.result, nil
}

// Close releases the underlying response body; safe to call at any time
// and more than once.
func (s *SelectStream) Close() error {
	s.done = true
	return s.body.Close()
}
