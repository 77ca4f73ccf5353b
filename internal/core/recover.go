package core

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Crash recovery for archive v3 streams.
//
// A v3 stream is only "complete" once Close has appended the footer index;
// a process killed mid-run (kill -9, OOM, node failure) leaves a torn
// stream: header + N complete step blocks + possibly a partial step (or a
// partial checkpoint footer) at the tail, and OpenStream rightly rejects
// the whole file. For week-long in situ campaigns that artifact holds
// irreplaceable simulation output, so RecoverStream exists to salvage it:
// it re-derives the footer index by scanning the stream forward, validating
// each step block with the same hardened parser the normal read path uses,
// and keeps the longest prefix of fully-written steps. A torn byte is never
// trusted — a step either parses completely (every field name, every
// nested v2 archive, every codec frame) or it and everything after it is
// discarded.

// RecoveryReport describes what RecoverStream found.
type RecoveryReport struct {
	// Steps is the number of salvaged (fully validated) steps.
	Steps int
	// Clean is set when the stream's own footer was intact and the index
	// was loaded directly — no scan, nothing lost.
	Clean bool
	// TornBytes counts the bytes past the last complete step that the scan
	// discarded (a partial step block, a half-written checkpoint footer,
	// or garbage). Zero for a clean stream.
	TornBytes int64
}

// RecoverStream opens a v3 stream that may be torn. An intact stream loads
// through the normal footer path (Clean=true, O(1)); anything else is
// scanned forward from the header and the longest valid prefix of steps is
// salvaged into an in-memory index. size is the total byte length of the
// artifact as found on disk.
//
// The error is non-nil only when nothing is salvageable at all: the
// artifact is shorter than a stream header or its header bytes are not a
// v3 stream's. A valid header with zero complete steps returns an empty
// reader, not an error.
func RecoverStream(r io.ReaderAt, size int64) (*StreamReader, *RecoveryReport, error) {
	// Fast path: the footer survived (clean close, or a crash that landed
	// between a checkpoint and the next step). Trust it — it validates the
	// full index tiling.
	if sr, err := OpenStream(r, size); err == nil {
		return sr, &RecoveryReport{Steps: sr.Steps(), Clean: true}, nil
	}
	if size < streamHeaderBytes {
		return nil, nil, fmt.Errorf("core: %w: %d bytes is shorter than a stream header, nothing to recover", errCorrupt, size)
	}
	if err := checkStreamHeader(r); err != nil {
		return nil, nil, err
	}

	var index []streamIndexEntry
	pos := int64(streamHeaderBytes)
	for pos < size {
		length, err := delimitStepBlock(r, pos, size)
		if err != nil {
			break // torn or trailing garbage: the salvaged prefix ends here
		}
		buf := make([]byte, length)
		if _, err := r.ReadAt(buf, pos); err != nil {
			break
		}
		// Full validation with the hardened parser: field-name ordering,
		// nested v2 archives, codec frames. A block that delimits but does
		// not validate is corruption, and nothing after it can be trusted
		// (its length derivation may itself be part of the damage).
		if _, err := parseStepBlock(buf, len(index)); err != nil {
			break
		}
		index = append(index, streamIndexEntry{Offset: uint64(pos), Length: uint64(length)})
		pos += length
	}
	return &StreamReader{r: r, index: index},
		&RecoveryReport{Steps: len(index), TornBytes: size - pos}, nil
}

// delimitStepBlock walks a step block's length structure starting at pos
// (field count, then per field: name length, name, payload length,
// payload) without validating contents, returning the block's total byte
// length. Every advance is bounds-checked against size, so a truncated
// block reports an error instead of running off the end.
func delimitStepBlock(r io.ReaderAt, pos, size int64) (int64, error) {
	var scratch [4]byte
	readU32 := func(at int64) (uint32, error) {
		if at+4 > size {
			return 0, io.ErrUnexpectedEOF
		}
		if _, err := r.ReadAt(scratch[:4], at); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	readU16 := func(at int64) (uint16, error) {
		if at+2 > size {
			return 0, io.ErrUnexpectedEOF
		}
		if _, err := r.ReadAt(scratch[:2], at); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint16(scratch[:2]), nil
	}
	count, err := readU32(pos)
	if err != nil {
		return 0, err
	}
	// Same honesty bound walkStepBlock enforces.
	if count == 0 || int64(count) > (size-pos)/minStepFieldBytes+1 {
		return 0, fmt.Errorf("core: implausible field count %d", count)
	}
	end := pos + 4
	for j := uint32(0); j < count; j++ {
		nameLen, err := readU16(end)
		if err != nil {
			return 0, err
		}
		if nameLen == 0 {
			return 0, fmt.Errorf("core: empty field name")
		}
		end += 2 + int64(nameLen)
		payload, err := readU32(end)
		if err != nil {
			return 0, err
		}
		end += 4 + int64(payload)
		if end > size {
			return 0, io.ErrUnexpectedEOF
		}
	}
	return end - pos, nil
}

// WriteTo serializes the reader's steps as a complete, footer-valid v3
// stream — the repair half of recovery: RecoverStream salvages a torn
// stream in memory, WriteTo persists the salvage as an artifact OpenStream
// accepts. Implements io.WriterTo.
func (sr *StreamReader) WriteTo(w io.Writer) (int64, error) {
	var written int64
	var hdr [streamHeaderBytes]byte
	copy(hdr[0:4], streamMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], streamVersion)
	n, err := w.Write(hdr[:])
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("core: rewrite stream header: %w", err)
	}
	// Steps are copied verbatim. The rebuilt index tiles from the header
	// exactly like the source's did (recovery only ever keeps a prefix),
	// so offsets carry over unchanged.
	index := make([]streamIndexEntry, 0, len(sr.index))
	off := uint64(streamHeaderBytes)
	for i, e := range sr.index {
		cn, err := io.Copy(w, io.NewSectionReader(sr.r, int64(e.Offset), int64(e.Length)))
		written += cn
		if err != nil {
			return written, fmt.Errorf("core: rewrite step %d: %w", i, err)
		}
		index = append(index, streamIndexEntry{Offset: off, Length: e.Length})
		off += e.Length
	}
	footer := appendStreamFooter(nil, index, off)
	n, err = w.Write(footer)
	written += int64(n)
	if err != nil {
		return written, fmt.Errorf("core: rewrite stream footer: %w", err)
	}
	return written, nil
}
