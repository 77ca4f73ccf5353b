package main

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/adaptive"
)

// TestReadModeEndToEnd drives runRead against a real archive server:
// write a two-step stream, serve it over h2c, run a short Zipf read
// burst, and check its totals and the exit gates.
func TestReadModeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	w, err := adaptive.NewArchiveWriter(filepath.Join(dir, "demo"+adaptive.ArchiveStreamSuffix),
		adaptive.ArchiveWriterOptions{Rate: 8, PartitionDim: 2})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		f := adaptive.NewField(8, 8, 8)
		for i := range f.Data {
			f.Data[i] = float32((i+s)%97) * 0.013
		}
		err := w.WriteStep(map[string]adaptive.ArchiveFieldSpec{
			"rho":  {Field: f},
			"temp": {Field: f, Codec: "sz", ErrorBound: 1e-3},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := adaptive.NewArchiveServer(adaptive.ArchiveServerConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := adaptive.NewH2CServer("", srv.Handler())
	go hs.Serve(l)
	defer hs.Close()

	total, err := runRead(readConfig{
		url:     "http://" + l.Addr().String(),
		clients: 4, conns: 2, retries: 1,
		duration: 400 * time.Millisecond, timeout: 5 * time.Second,
		maxP99: time.Minute,
		stream: "demo", browseRate: 2, analysisRate: 0,
		browseFrac: 0.7, zipfS: 1.3, seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.ok == 0 || total.failed != 0 {
		t.Fatalf("read burst: %d ok, %d failed", total.ok, total.failed)
	}

	// The gates: a run with no success fails whatever -max-p99 says, and
	// a latency bound applies only when set.
	if err := gate(0, 0, 0); err == nil {
		t.Fatal("gate passed a run with no successful request")
	}
	if err := gate(1, time.Second, time.Millisecond); err == nil {
		t.Fatal("gate passed a p99 above the bound")
	}
	if err := gate(1, time.Second, 0); err != nil {
		t.Fatalf("gate without a latency bound: %v", err)
	}
}
