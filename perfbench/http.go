package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/adaptive"
)

// spanHeader carries "op/span" from the client's round trip to the server
// middleware, so handler spans nest under the round trip that sent them.
const spanHeader = "X-Perfbench-Span"

type callKey struct{}

// call names the request a client call serves and the call's span.
type call struct{ op, span int64 }

func withCall(ctx context.Context, op, span int64) context.Context {
	return context.WithValue(ctx, callKey{}, call{op, span})
}

// tracedTransport records one client.roundtrip span per HTTP attempt,
// from sending the request until the response body is closed.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c, _ := req.Context().Value(callKey{}).(call)
	id := t.tr.id()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", c.op, id))
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.add(id, c.span, "client.roundtrip", c.op, start, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() {
		t.tr.add(id, c.span, "client.roundtrip", c.op, start, time.Now())
	}}
	return resp, nil
}

// spanBody ends its span once, when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// tracedHandler records one span per request around a server's handler;
// name picks the span name from the response.
type tracedHandler struct {
	h    http.Handler
	tr   *tracer
	name func(status int, h http.Header) string
}

func (m *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var op, parent int64
	if v := r.Header.Get(spanHeader); v != "" {
		a, b, _ := strings.Cut(v, "/")
		op, _ = strconv.ParseInt(a, 10, 64)
		parent, _ = strconv.ParseInt(b, 10, 64)
	}
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	m.h.ServeHTTP(rec, r)
	m.tr.add(m.tr.id(), parent, m.name(rec.status, rec.Header()), op, start, time.Now())
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// httpEnv is one in-process server on loopback plus the h2c connections
// its clients share.
type httpEnv struct {
	url   string
	hs    *http.Server
	done  chan error
	conns []*http.Client
}

// startHTTP serves h on a loopback port and builds n h2c client
// connections to it; with tr set, the handler and the connections record
// spans.
func startHTTP(h http.Handler, n int, tr *tracer, name func(int, http.Header) string) (*httpEnv, error) {
	if tr != nil {
		h = &tracedHandler{h: h, tr: tr, name: name}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	env := &httpEnv{url: "http://" + ln.Addr().String(), hs: adaptive.NewH2CServer("", h), done: make(chan error, 1)}
	go func() { env.done <- env.hs.Serve(ln) }()
	for i := 0; i < n; i++ {
		var rt http.RoundTripper = adaptive.NewH2CTransport()
		if tr != nil {
			rt = &tracedTransport{base: rt, tr: tr}
		}
		env.conns = append(env.conns, &http.Client{Transport: rt})
	}
	return env, nil
}

// close stops the server and waits for its serve loop to return.
func (e *httpEnv) close() error {
	for _, c := range e.conns {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-e.done; err != http.ErrServerClosed {
		return fmt.Errorf("http serve: %w", err)
	}
	return nil
}

// wireTimes returns each round trip's time outside the server handler:
// the round trip's span minus its handler child.
func wireTimes(spans []span) []float64 {
	kids := childrenOf(spans)
	rts := named(spans, "client.roundtrip")
	out := make([]float64, 0, len(rts))
	for _, s := range rts {
		out = append(out, selfTime(s, kids[s.ID]).Seconds())
	}
	return out
}
