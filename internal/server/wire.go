// Wire format for raw fields on the service boundary: a 12-byte header of
// little-endian uint32 dims (nx, ny, nz) followed by exactly nx·ny·nz
// little-endian float32 cells in the same x-fastest C order grid.Field3D
// stores. Compressed fields need no wire format of their own — the archive
// v2 container (core.CompressedField.Bytes) is already a validated,
// self-describing byte string.
package server

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/apierr"
	"repro/internal/grid"
)

const fieldWireHeader = 12

// EncodeField serializes a field into the raw-field wire format.
func EncodeField(f *grid.Field3D) []byte {
	buf := make([]byte, fieldWireHeader+4*len(f.Data))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(f.Nx))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(f.Ny))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(f.Nz))
	for i, v := range f.Data {
		binary.LittleEndian.PutUint32(buf[fieldWireHeader+4*i:], math.Float32bits(v))
	}
	return buf
}

// DecodeField parses the raw-field wire format. Hostile inputs — truncated
// headers, dims that disagree with the body length, absurd cell counts —
// are rejected wrapping apierr.ErrBadConfig: they are client mistakes, not
// archive corruption.
func DecodeField(data []byte, maxCells int64) (*grid.Field3D, error) {
	if len(data) < fieldWireHeader {
		return nil, fmt.Errorf("server: %w: field payload %d bytes, need at least the %d-byte dim header",
			apierr.ErrBadConfig, len(data), fieldWireHeader)
	}
	nx := int(binary.LittleEndian.Uint32(data[0:4]))
	ny := int(binary.LittleEndian.Uint32(data[4:8]))
	nz := int(binary.LittleEndian.Uint32(data[8:12]))
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("server: %w: non-positive field dims %d×%d×%d", apierr.ErrBadConfig, nx, ny, nz)
	}
	// Bound the cell count a factor at a time: three dims of up to 2³²−1
	// overflow int64, and a product that wraps to a small count would pass
	// the length check below with a field whose dims disagree with its data.
	if int64(nx) > maxCells || int64(ny) > maxCells/int64(nx) || int64(nz) > maxCells/(int64(nx)*int64(ny)) {
		return nil, fmt.Errorf("server: %w: field %d×%d×%d exceeds the %d-cell limit",
			apierr.ErrBadConfig, nx, ny, nz, maxCells)
	}
	cells := int64(nx) * int64(ny) * int64(nz)
	if want := int64(fieldWireHeader) + 4*cells; int64(len(data)) != want {
		return nil, fmt.Errorf("server: %w: field %d×%d×%d needs %d bytes, got %d",
			apierr.ErrBadConfig, nx, ny, nz, want, len(data))
	}
	f := grid.NewField3D(nx, ny, nz)
	for i := range f.Data {
		f.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[fieldWireHeader+4*i:]))
	}
	return f, nil
}
