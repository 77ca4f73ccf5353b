package mpinet

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzReadFrame: whatever the bytes, readFrame errors or returns a frame
// that appendFrame re-encodes to exactly the bytes it consumed. The
// harness re-seals the payload CRC so mutations reach the payload parser
// instead of stopping at the checksum. Seeds are checked in under
// testdata/fuzz/FuzzReadFrame; extend coverage with
//
//	go test ./internal/mpinet -fuzz=FuzzReadFrame -fuzztime=30s
func FuzzReadFrame(f *testing.F) {
	seed, err := appendFrame(nil, &frame{kind: kindResult, epoch: 2, seq: 5, from: -1, vec: []float64{1, 2}, extra: []byte("x")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 8 {
			data = append([]byte(nil), data...)
			end := 8 + uint64(binary.BigEndian.Uint32(data))
			if end > uint64(len(data)) {
				end = uint64(len(data))
			}
			binary.BigEndian.PutUint32(data[4:], crc32.ChecksumIEEE(data[8:end]))
		}
		r := bytes.NewReader(data)
		fr, err := readFrame(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		got, err := appendFrame(nil, fr)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(got, consumed) {
			t.Fatalf("accepted frame re-encodes to %d different bytes (consumed %d)", len(got), len(consumed))
		}
	})
}
