package server

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/grid"
)

// Fuzz harnesses for the service's two client-facing decoders. Seeds are
// checked in under testdata/fuzz/<target>; extend coverage with
//
//	go test ./internal/server -fuzz=FuzzDecodeField -fuzztime=30s

// FuzzDecodeField: DecodeField never panics, and an accepted payload is
// exactly the 12-byte dim header plus 4·nx·ny·nz bytes of cells, so it
// re-encodes byte-identically.
func FuzzDecodeField(f *testing.F) {
	seed := grid.NewField3D(2, 3, 1)
	for i := range seed.Data {
		seed.Data[i] = float32(i) - 1.5
	}
	f.Add(EncodeField(seed))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeField(data, 1<<16)
		if err != nil {
			return
		}
		cells := int64(g.Nx) * int64(g.Ny) * int64(g.Nz)
		if int64(len(data)) != fieldWireHeader+4*cells || int64(len(g.Data)) != cells {
			t.Fatalf("accepted %d bytes as %d×%d×%d with %d cells", len(data), g.Nx, g.Ny, g.Nz, len(g.Data))
		}
		if !bytes.Equal(EncodeField(g), data) {
			t.Fatal("accepted field does not re-encode byte-identically")
		}
	})
}

// FuzzErrorFromResponse: any status and body either yield nil (not an
// error envelope) or an error naming the status — never a panic.
func FuzzErrorFromResponse(f *testing.F) {
	f.Add(400, []byte(`{"error":{"code":"bad_config","message":"rate \"x\""}}`))
	f.Fuzz(func(t *testing.T, status int, body []byte) {
		err := ErrorFromResponse(status, body)
		if err != nil && !strings.Contains(err.Error(), fmt.Sprintf("HTTP %d", status)) {
			t.Fatalf("error %q does not name status %d", err, status)
		}
	})
}
