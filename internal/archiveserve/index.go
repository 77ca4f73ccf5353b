package archiveserve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/zfp"
)

// Sidecar index ("ACSI", version 1): the persisted per-block bit-offset
// tables of every ZFP partition in a v3 stream, so the server can splice
// any lower rate without rescanning block boundaries at open.
//
//	offset size  field
//	0      4     magic "ACSI"
//	4      4     version (1)
//	8      4     footer CRC32-C of the indexed stream (binding)
//	12     4     step count
//	per step:  uint32 field count
//	  per field (sorted name order, as in the step block):
//	    uint16 name length + name bytes
//	    uint32 partition count
//	    per partition: uint32 entry count N,
//	                   N × uint32 absolute bit offsets (0 entries for
//	                   non-ZFP partitions — nothing to splice)
//	trailer: uint32 CRC32-C of everything above
//
// The footer CRC binds the sidecar to one exact stream: the v3 footer
// covers every step's offset and length, so any append, truncation, or
// rewrite of the stream changes it. A sidecar that fails the binding (or
// its own trailer CRC) is discarded and rebuilt by scanning the stream —
// zfp.Reindex recovers the identical table, the sidecar is purely an
// open-time optimization.
const (
	sidecarMagic   = "ACSI"
	sidecarVersion = 1
	// SidecarSuffix is appended to the stream path to name its sidecar.
	SidecarSuffix = ".idx"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sidecar is the in-memory form: steps[i][j] holds field j of step i (the
// step block's sorted field order), each a per-partition starts table.
type sidecar struct {
	footerCRC uint32
	steps     [][]fieldIndex
}

type fieldIndex struct {
	name   string
	starts [][]int // per partition; nil for non-ZFP partitions
}

// field returns the named field's index within step i, or nil.
func (sc *sidecar) field(step int, name string) *fieldIndex {
	if step < 0 || step >= len(sc.steps) {
		return nil
	}
	for i := range sc.steps[step] {
		if sc.steps[step][i].name == name {
			return &sc.steps[step][i]
		}
	}
	return nil
}

func encodeSidecar(sc *sidecar) []byte {
	var buf []byte
	var s [4]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(s[:], v)
		buf = append(buf, s[:4]...)
	}
	buf = append(buf, sidecarMagic...)
	u32(sidecarVersion)
	u32(sc.footerCRC)
	u32(uint32(len(sc.steps)))
	for _, step := range sc.steps {
		u32(uint32(len(step)))
		for _, fi := range step {
			binary.LittleEndian.PutUint16(s[:2], uint16(len(fi.name)))
			buf = append(buf, s[:2]...)
			buf = append(buf, fi.name...)
			u32(uint32(len(fi.starts)))
			for _, starts := range fi.starts {
				u32(uint32(len(starts)))
				for _, off := range starts {
					u32(uint32(off))
				}
			}
		}
	}
	u32(crc32.Checksum(buf, castagnoli))
	return buf
}

func parseSidecar(data []byte) (*sidecar, error) {
	corrupt := func(what string) error {
		return fmt.Errorf("archiveserve: %w: sidecar %s", apierr.ErrCorruptArchive, what)
	}
	if len(data) < 20 {
		return nil, corrupt("shorter than header")
	}
	if string(data[0:4]) != sidecarMagic {
		return nil, corrupt(fmt.Sprintf("has bad magic %q", data[0:4]))
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != sidecarVersion {
		return nil, corrupt(fmt.Sprintf("has unsupported version %d", v))
	}
	body, trailer := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != trailer {
		return nil, corrupt("CRC mismatch")
	}
	sc := &sidecar{footerCRC: binary.LittleEndian.Uint32(data[8:12])}
	stepCount := int(binary.LittleEndian.Uint32(data[12:16]))
	pos := 16
	// Every count claimed below costs at least 4 bytes of payload, so
	// bounding counts by the remaining bytes keeps hostile headers from
	// driving preallocation.
	remaining := func() int { return len(body) - pos }
	if stepCount < 0 || stepCount > remaining()/4 {
		return nil, corrupt(fmt.Sprintf("claims %d steps", stepCount))
	}
	u32at := func() (uint32, bool) {
		if pos+4 > len(body) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(body[pos:])
		pos += 4
		return v, true
	}
	sc.steps = make([][]fieldIndex, 0, stepCount)
	for s := 0; s < stepCount; s++ {
		fc, ok := u32at()
		if !ok || int(fc) > remaining()/4+1 {
			return nil, corrupt(fmt.Sprintf("truncated at step %d", s))
		}
		fields := make([]fieldIndex, 0, fc)
		for f := 0; f < int(fc); f++ {
			if pos+2 > len(body) {
				return nil, corrupt(fmt.Sprintf("truncated at step %d field %d", s, f))
			}
			nameLen := int(binary.LittleEndian.Uint16(body[pos:]))
			pos += 2
			if nameLen == 0 || pos+nameLen > len(body) {
				return nil, corrupt(fmt.Sprintf("truncated inside step %d field %d name", s, f))
			}
			fi := fieldIndex{name: string(body[pos : pos+nameLen])}
			pos += nameLen
			pc, ok := u32at()
			if !ok || int(pc) > remaining()/4+1 {
				return nil, corrupt(fmt.Sprintf("truncated at %q partition count", fi.name))
			}
			fi.starts = make([][]int, 0, pc)
			for p := 0; p < int(pc); p++ {
				n, ok := u32at()
				if !ok || int(n) > remaining()/4+1 {
					return nil, corrupt(fmt.Sprintf("truncated at %q partition %d", fi.name, p))
				}
				var starts []int
				if n > 0 {
					starts = make([]int, n)
					for i := range starts {
						v, ok := u32at()
						if !ok {
							return nil, corrupt(fmt.Sprintf("truncated inside %q partition %d offsets", fi.name, p))
						}
						starts[i] = int(v)
					}
				}
				fi.starts = append(fi.starts, starts)
			}
			fields = append(fields, fi)
		}
		sc.steps = append(sc.steps, fields)
	}
	if pos != len(body) {
		return nil, corrupt(fmt.Sprintf("has %d trailing bytes", len(body)-pos))
	}
	return sc, nil
}

// footerRegionCRC checksums a v3 stream's footer region [footerOff, size)
// — the sidecar's binding to one exact stream. footerOff is the offset
// core.OpenStream validated (StreamReader.FooterOffset).
func footerRegionCRC(r io.ReaderAt, footerOff, size int64) (uint32, error) {
	buf := make([]byte, size-footerOff)
	if _, err := r.ReadAt(buf, footerOff); err != nil {
		return 0, fmt.Errorf("archiveserve: stream footer: %w", err)
	}
	return crc32.Checksum(buf, castagnoli), nil
}

// buildSidecar reconstructs the bit-offset tables by scanning the stream:
// every ZFP partition body is parsed and its block boundaries re-derived
// with zfp.Reindex (identical to what compression recorded). This is the
// recovery path for a missing or stale sidecar — O(payload) once, then
// persisted again.
func buildSidecar(r io.ReaderAt, sr *core.StreamReader, footerCRC uint32) (*sidecar, error) {
	sc := &sidecar{footerCRC: footerCRC}
	for step := 0; step < sr.Steps(); step++ {
		layouts, err := sr.StepLayout(step)
		if err != nil {
			return nil, err
		}
		fields := make([]fieldIndex, 0, len(layouts))
		for _, fl := range layouts {
			fi := fieldIndex{name: fl.Name, starts: make([][]int, len(fl.Partitions))}
			for p, pl := range fl.Partitions {
				if pl.Codec != codec.ZFP {
					continue
				}
				body := make([]byte, pl.BodyLength)
				if _, err := r.ReadAt(body, pl.BodyOffset); err != nil {
					return nil, fmt.Errorf("archiveserve: step %d field %q partition %d: %w", step, fl.Name, p, err)
				}
				c, err := zfp.Parse(body)
				if err != nil {
					return nil, fmt.Errorf("archiveserve: step %d field %q partition %d: %w", step, fl.Name, p, err)
				}
				ix, err := zfp.Reindex(c)
				if err != nil {
					return nil, fmt.Errorf("archiveserve: step %d field %q partition %d: %w", step, fl.Name, p, err)
				}
				fi.starts[p] = ix.Starts()
			}
			fields = append(fields, fi)
		}
		sc.steps = append(sc.steps, fields)
	}
	return sc, nil
}
