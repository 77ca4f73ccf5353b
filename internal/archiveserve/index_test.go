package archiveserve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzParseSidecar: whatever the bytes, parseSidecar errors or returns a
// sidecar that encodeSidecar re-encodes byte-identically. The harness
// re-seals the trailer CRC so mutations reach the structural parser
// instead of stopping at the checksum. Seeds are checked in under
// testdata/fuzz/FuzzParseSidecar; extend coverage with
//
//	go test ./internal/archiveserve -fuzz=FuzzParseSidecar -fuzztime=30s
func FuzzParseSidecar(f *testing.F) {
	f.Add(encodeSidecar(&sidecar{footerCRC: 7, steps: [][]fieldIndex{
		{{name: "rho", starts: [][]int{{0, 96, 200}, nil}}},
	}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			data = append([]byte(nil), data...)
			body := data[:len(data)-4]
			binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, castagnoli))
		}
		sc, err := parseSidecar(data)
		if err != nil {
			return
		}
		if got := encodeSidecar(sc); !bytes.Equal(got, data) {
			t.Fatalf("accepted sidecar re-encodes to %d different bytes (input %d)", len(got), len(data))
		}
	})
}
