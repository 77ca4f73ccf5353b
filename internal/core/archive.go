package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/apierr"
	"repro/internal/codec"
)

// errCorrupt is the sentinel every archive-validation failure in this file
// wraps (re-exported by the facade as adaptive.ErrCorruptArchive), so a
// reader can classify any parse failure with one errors.Is check.
var errCorrupt = apierr.ErrCorruptArchive

// readAtErr classifies an io.ReaderAt failure: running off the end of the
// stream is truncation — corruption — but any other I/O failure (a closed
// handle, a transient EIO from network storage) is passed through
// untagged, so a caller that quarantines archives on ErrCorruptArchive
// never condemns a healthy file over a flaky read.
func readAtErr(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("core: %s: %w: %w", what, errCorrupt, err)
	}
	return fmt.Errorf("core: %s: %w", what, err)
}

// Archive framing for a CompressedField: a small header followed by
// length-prefixed self-describing codec frames, one per partition in
// partition-ID order.
//
//	offset size  field
//	0      4     magic "ACFD"
//	4      4     version (2)
//	8      12    nx, ny, nz (uint32)
//	20     4     partition dim
//	24     4     partition count
//	28     ...   per partition: uint32 length + codec frame envelope
//
// Version 2 switched the per-partition payload from raw sz streams to
// codec envelopes (codec ID + version + native stream), so archives decode
// without out-of-band knowledge of the producing backend — including
// archives whose partitions mix codecs.
const (
	archiveMagic   = "ACFD"
	archiveVersion = 2
	archiveHeader  = 28
)

// Bytes serializes the compressed field. Each partition's native stream
// carries its own integrity checks (sz CRCs its payload), so the archive
// needs no extra checksum.
func (cf *CompressedField) Bytes() []byte {
	out := make([]byte, archiveHeader, archiveHeader+cf.CompressedSize()+16*len(cf.Parts))
	copy(out[0:4], archiveMagic)
	binary.LittleEndian.PutUint32(out[4:8], archiveVersion)
	binary.LittleEndian.PutUint32(out[8:12], uint32(cf.Nx))
	binary.LittleEndian.PutUint32(out[12:16], uint32(cf.Ny))
	binary.LittleEndian.PutUint32(out[16:20], uint32(cf.Nz))
	binary.LittleEndian.PutUint32(out[20:24], uint32(cf.PartitionDim))
	binary.LittleEndian.PutUint32(out[24:28], uint32(len(cf.Parts)))
	for _, p := range cf.Parts {
		blob := codec.EncodeFrame(p)
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(blob)))
		out = append(out, lenBuf[:]...)
		out = append(out, blob...)
	}
	return out
}

// ParseCompressedField reverses Bytes: fieldLayout walks and validates the
// structure, then each partition's codec resolves from its frame header
// and parses its codec-native stream.
func ParseCompressedField(data []byte) (*CompressedField, error) {
	fl, err := fieldLayout(data, 0)
	if err != nil {
		return nil, err
	}
	cf := &CompressedField{
		Nx: fl.Nx, Ny: fl.Ny, Nz: fl.Nz,
		PartitionDim: fl.PartitionDim,
		Parts:        make([]codec.Frame, 0, len(fl.Partitions)),
	}
	for i, pl := range fl.Partitions {
		c, err := codec.Lookup(pl.Codec)
		var p codec.Frame
		if err == nil {
			p, err = c.Parse(data[pl.BodyOffset : pl.BodyOffset+pl.BodyLength])
		}
		if err != nil {
			// Both the taxonomy sentinel and the codec-level cause are
			// wrapped, so errors.Is sees ErrCorruptArchive here and (for a
			// frame naming a foreign backend) ErrCodecUnknown from below.
			return nil, fmt.Errorf("core: partition %d: %w: %w", i, errCorrupt, err)
		}
		cf.Parts = append(cf.Parts, p)
	}
	cf.Codec = cf.Parts[0].CodecID()
	return cf, nil
}

// --- Archive v3: multi-snapshot stream container -------------------------
//
// Version 3 is the streaming form of the archive: a header, then one block
// per simulation step appended as the step is compressed, then a footer
// index written once at Close. Each step block holds the step's fields in
// name order; each field payload is a complete v2 single-field archive, so
// every partition stream inside is still a self-describing codec envelope.
//
//	header (16 bytes)
//	  0   4   magic "ACS3"
//	  4   4   version (3)
//	  8   8   reserved (0)
//	step block (appended per step)
//	  uint32  field count
//	  per field: uint16 name length, name bytes,
//	             uint32 payload length, v2 archive payload
//	footer (written at Close)
//	  per step: uint64 offset, uint64 length   (the index)
//	  uint32  step count
//	  uint64  index offset
//	  4       magic "ACSX"
//
// The footer is fixed-size from the end, so a reader locates the index with
// one read and then seeks to any step in O(1) — no scan through earlier
// steps, which is what makes post-hoc analysis of one late timestep cheap
// even for long runs.
const (
	streamMagic        = "ACS3"
	streamTrailerMagic = "ACSX"
	streamVersion      = 3
	streamHeaderBytes  = 16
	streamTrailerBytes = 16 // step count + index offset + trailer magic
)

type streamIndexEntry struct {
	Offset, Length uint64
}

// appendStreamFooter appends the v3 footer (index entries, step count,
// index offset, trailer magic) for steps ending at indexOff. Shared by
// Close, checkpoint snapshots, and StreamReader.WriteTo so all three emit
// bit-identical footers.
func appendStreamFooter(buf []byte, index []streamIndexEntry, indexOff uint64) []byte {
	if cap(buf) == 0 {
		buf = make([]byte, 0, 16*len(index)+streamTrailerBytes)
	}
	var scratch [8]byte
	for _, e := range index {
		binary.LittleEndian.PutUint64(scratch[:], e.Offset)
		buf = append(buf, scratch[:]...)
		binary.LittleEndian.PutUint64(scratch[:], e.Length)
		buf = append(buf, scratch[:]...)
	}
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(index)))
	buf = append(buf, scratch[:4]...)
	binary.LittleEndian.PutUint64(scratch[:], indexOff)
	buf = append(buf, scratch[:]...)
	return append(buf, streamTrailerMagic...)
}

// StreamWriter appends compressed steps to an archive v3 stream. It only
// needs an io.Writer: offsets are tracked by counting, so the destination
// can be a pipe or an append-only log as well as a file. Not safe for
// concurrent use.
type StreamWriter struct {
	w      io.Writer
	off    uint64
	index  []streamIndexEntry
	closed bool
	// closeErr makes a failed footer write sticky: every later Close
	// reports it instead of claiming success on a truncated stream.
	closeErr error
	// writeErr poisons the writer after a failed WriteStep: the destination
	// may hold a short write at an unknown offset, so sw.off no longer
	// matches the real stream position and appending more steps (or a
	// footer indexing them) would silently corrupt the archive. Every later
	// WriteStep and Close reports this error instead.
	writeErr error

	// Checkpoint state (nil wAt = checkpointing off; the plain-writer code
	// path is untouched and its output byte-identical).
	ckpt      CheckpointOptions
	wAt       io.WriterAt
	trunc     interface{ Truncate(int64) error }
	sinceCkpt int
	// extent is the farthest byte ever written, including checkpoint
	// footers beyond off; Close truncates back to the true stream end.
	extent uint64
}

// CheckpointOptions tunes the stream writer's crash-recovery checkpoints.
type CheckpointOptions struct {
	// Interval is the number of steps between footer snapshots (default 1:
	// snapshot after every step).
	Interval int
	// Sync fsyncs the destination after each snapshot when it implements
	// Sync() error (an *os.File does). With Sync on, a crash loses at most
	// Interval steps — the bounded-loss contract; without it the loss
	// bound is whatever the OS page cache had not flushed.
	Sync bool
}

// NewCheckpointedStreamWriter is NewStreamWriter with crash-recovery
// checkpoints: after every Interval steps the current footer index is
// written at the stream's tail via WriteAt — without advancing the append
// cursor — so the artifact on disk is a complete, OpenStream-valid v3
// stream at every checkpoint. The next WriteStep simply overwrites the
// snapshot with real step bytes. A crash therefore leaves either a
// directly openable stream (crash between steps) or a torn one whose
// checkpointed prefix RecoverStream salvages in full.
//
// The destination must implement io.WriterAt and Truncate(int64) error —
// an *os.File does — because snapshots may extend the file past the final
// footer, which Close truncates away. The emitted byte stream is
// indistinguishable from NewStreamWriter's once Close returns.
func NewCheckpointedStreamWriter(w io.Writer, opt CheckpointOptions) (*StreamWriter, error) {
	wAt, ok := w.(io.WriterAt)
	if !ok {
		return nil, fmt.Errorf("core: checkpointed stream writer needs io.WriterAt, %T does not implement it", w)
	}
	trunc, ok := w.(interface{ Truncate(int64) error })
	if !ok {
		return nil, fmt.Errorf("core: checkpointed stream writer needs Truncate(int64), %T does not implement it", w)
	}
	if opt.Interval <= 0 {
		opt.Interval = 1
	}
	sw, err := NewStreamWriter(w)
	if err != nil {
		return nil, err
	}
	sw.ckpt, sw.wAt, sw.trunc = opt, wAt, trunc
	sw.extent = sw.off
	return sw, nil
}

// checkpoint snapshots the footer at the current tail. sw.off is not
// advanced: the snapshot lives past the logical stream end and is
// overwritten by the next step (or superseded by Close's real footer).
func (sw *StreamWriter) checkpoint() error {
	buf := appendStreamFooter(nil, sw.index, sw.off)
	if _, err := sw.wAt.WriteAt(buf, int64(sw.off)); err != nil {
		return fmt.Errorf("core: stream checkpoint after step %d: %w", len(sw.index), err)
	}
	if end := sw.off + uint64(len(buf)); end > sw.extent {
		sw.extent = end
	}
	if sw.ckpt.Sync {
		if err := sw.sync(); err != nil {
			return fmt.Errorf("core: stream checkpoint sync after step %d: %w", len(sw.index), err)
		}
	}
	sw.sinceCkpt = 0
	return nil
}

func (sw *StreamWriter) sync() error {
	if s, ok := sw.w.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// NewStreamWriter writes the stream header and returns a writer ready to
// accept steps.
func NewStreamWriter(w io.Writer) (*StreamWriter, error) {
	var hdr [streamHeaderBytes]byte
	copy(hdr[0:4], streamMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], streamVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("core: stream header: %w", err)
	}
	return &StreamWriter{w: w, off: streamHeaderBytes}, nil
}

// WriteStep appends one step's fields (in sorted name order, so the byte
// stream is deterministic regardless of map iteration). A failed append
// poisons the writer: the error is sticky, and both later WriteStep and
// Close calls keep returning it rather than appending at a stale offset
// into a stream that already holds a partial step.
func (sw *StreamWriter) WriteStep(fields map[string]*CompressedField) error {
	if sw.writeErr != nil {
		return sw.writeErr
	}
	if sw.closed {
		return fmt.Errorf("core: stream writer is closed")
	}
	if len(fields) == 0 {
		return fmt.Errorf("core: step has no fields")
	}
	names := make([]string, 0, len(fields))
	for name := range fields {
		if len(name) == 0 || len(name) > 1<<16-1 {
			return fmt.Errorf("core: invalid field name %q", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)

	var buf []byte
	var scratch [4]byte
	binary.LittleEndian.PutUint32(scratch[:], uint32(len(names)))
	buf = append(buf, scratch[:]...)
	for _, name := range names {
		binary.LittleEndian.PutUint16(scratch[:2], uint16(len(name)))
		buf = append(buf, scratch[:2]...)
		buf = append(buf, name...)
		blob := fields[name].Bytes()
		if uint64(len(blob)) > 1<<32-1 {
			return fmt.Errorf("core: field %q payload %d bytes exceeds the stream's 4 GiB field limit", name, len(blob))
		}
		binary.LittleEndian.PutUint32(scratch[:], uint32(len(blob)))
		buf = append(buf, scratch[:]...)
		buf = append(buf, blob...)
	}
	if _, err := sw.w.Write(buf); err != nil {
		sw.writeErr = fmt.Errorf("core: stream step %d: %w", len(sw.index), err)
		return sw.writeErr
	}
	sw.index = append(sw.index, streamIndexEntry{Offset: sw.off, Length: uint64(len(buf))})
	sw.off += uint64(len(buf))
	if sw.off > sw.extent {
		sw.extent = sw.off
	}
	if sw.wAt != nil {
		// A checkpoint failure does not poison the writer — the step above
		// landed and sw.off is accurate — but it is surfaced: the caller's
		// durability contract (bounded loss) just broke, and on a dying disk
		// aborting the run beats discovering the loss after the crash.
		if sw.sinceCkpt++; sw.sinceCkpt >= sw.ckpt.Interval {
			return sw.checkpoint()
		}
	}
	return nil
}

// Steps returns the number of steps written so far.
func (sw *StreamWriter) Steps() int { return len(sw.index) }

// TruncateSteps rewinds the stream to its state after step n (keeping
// steps [0, n)): the distributed step-retry primitive. When a rank dies
// mid-step, every survivor may already have appended its shard block for
// the failed step; the retry — with rebalanced ownership — rewrites that
// step from scratch, so the half-committed block must be cut off first.
//
// The destination must implement Truncate(int64) error and io.Seeker (an
// *os.File does): Truncate alone does not move the file's write cursor,
// so the append position is explicitly re-seeked to the new end. A
// truncation failure poisons the writer like a failed step write — the
// real stream position is unknowable afterwards.
func (sw *StreamWriter) TruncateSteps(n int) error {
	if sw.writeErr != nil {
		return sw.writeErr
	}
	if sw.closed {
		return fmt.Errorf("core: stream writer is closed")
	}
	if n < 0 || n > len(sw.index) {
		return fmt.Errorf("core: truncate to %d steps outside [0,%d]", n, len(sw.index))
	}
	if n == len(sw.index) {
		return nil
	}
	trunc, ok := sw.w.(interface{ Truncate(int64) error })
	if !ok {
		return fmt.Errorf("core: stream truncation needs Truncate(int64), %T does not implement it", sw.w)
	}
	seeker, ok := sw.w.(io.Seeker)
	if !ok {
		return fmt.Errorf("core: stream truncation needs io.Seeker, %T does not implement it", sw.w)
	}
	end := uint64(streamHeaderBytes)
	if n > 0 {
		end = sw.index[n-1].Offset + sw.index[n-1].Length
	}
	if err := trunc.Truncate(int64(end)); err != nil {
		sw.writeErr = fmt.Errorf("core: truncating stream to step %d: %w", n, err)
		return sw.writeErr
	}
	if _, err := seeker.Seek(int64(end), io.SeekStart); err != nil {
		sw.writeErr = fmt.Errorf("core: seeking stream to step %d: %w", n, err)
		return sw.writeErr
	}
	sw.index = sw.index[:n]
	sw.off = end
	sw.extent = end
	sw.sinceCkpt = 0
	return nil
}

// Close appends the footer index. The writer cannot be used afterwards;
// closing an empty stream is valid and yields a zero-step archive. A
// footer-write failure is sticky: repeated Close calls keep returning it,
// so a deferred second Close cannot mask a truncated stream. A writer
// poisoned by a failed WriteStep refuses to finalize at all — the footer
// would land at a stale offset — and Close reports the original failure.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return sw.closeErr
	}
	sw.closed = true
	if sw.writeErr != nil {
		sw.closeErr = fmt.Errorf("core: stream not finalized after failed step write: %w", sw.writeErr)
		return sw.closeErr
	}
	buf := appendStreamFooter(nil, sw.index, sw.off)
	if _, err := sw.w.Write(buf); err != nil {
		sw.closeErr = fmt.Errorf("core: stream footer: %w", err)
		return sw.closeErr
	}
	if sw.wAt != nil {
		// Checkpoint snapshots may have pushed the file past the real
		// stream end (a snapshot footer is longer than the steps written
		// after it); truncate so the artifact's size is exactly the stream.
		if end := sw.off + uint64(len(buf)); sw.extent > end {
			if err := sw.trunc.Truncate(int64(end)); err != nil {
				sw.closeErr = fmt.Errorf("core: truncating checkpoint residue: %w", err)
				return sw.closeErr
			}
		}
		if sw.ckpt.Sync {
			if err := sw.sync(); err != nil {
				sw.closeErr = fmt.Errorf("core: stream close sync: %w", err)
			}
		}
	}
	return sw.closeErr
}

// StreamReader reads an archive v3 stream with O(1) access to any step.
//
// A StreamReader is safe for concurrent use by multiple goroutines: its
// step index is immutable after OpenStream, every read method works on
// its own buffer, and positions are always passed explicitly to the
// underlying io.ReaderAt — there is no shared cursor. The only
// requirement is that the ReaderAt itself honors io.ReaderAt's contract
// of supporting parallel ReadAt calls, which *os.File, *bytes.Reader, and
// *io.SectionReader all do. One open stream can therefore serve many
// readers at once — the fan-out an archive server needs.
type StreamReader struct {
	r     io.ReaderAt
	index []streamIndexEntry
}

// checkStreamHeader validates the v3 stream header at offset 0.
func checkStreamHeader(r io.ReaderAt) error {
	var hdr [streamHeaderBytes]byte
	if _, err := r.ReadAt(hdr[:], 0); err != nil {
		return readAtErr("stream header", err)
	}
	if string(hdr[0:4]) != streamMagic {
		return fmt.Errorf("core: %w: bad stream magic %q", errCorrupt, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != streamVersion {
		return fmt.Errorf("core: %w: unsupported stream version %d", errCorrupt, v)
	}
	return nil
}

// OpenStream validates the header and footer of a v3 stream and loads its
// step index. size is the total byte length of the stream.
func OpenStream(r io.ReaderAt, size int64) (*StreamReader, error) {
	if size < streamHeaderBytes+streamTrailerBytes {
		return nil, fmt.Errorf("core: %w: stream shorter than header+footer", errCorrupt)
	}
	if err := checkStreamHeader(r); err != nil {
		return nil, err
	}
	var trailer [streamTrailerBytes]byte
	if _, err := r.ReadAt(trailer[:], size-streamTrailerBytes); err != nil {
		return nil, readAtErr("stream trailer", err)
	}
	if string(trailer[12:16]) != streamTrailerMagic {
		return nil, fmt.Errorf("core: %w: bad stream trailer magic %q", errCorrupt, trailer[12:16])
	}
	count := int(binary.LittleEndian.Uint32(trailer[0:4]))
	indexOff := binary.LittleEndian.Uint64(trailer[4:12])
	indexLen := 16 * uint64(count)
	if indexLen > uint64(size) || indexOff > uint64(size) ||
		indexOff < streamHeaderBytes || indexOff+indexLen != uint64(size-streamTrailerBytes) {
		return nil, fmt.Errorf("core: %w: stream index at %d (%d steps) inconsistent with size %d",
			errCorrupt, indexOff, count, size)
	}
	raw := make([]byte, indexLen)
	if count > 0 {
		if _, err := r.ReadAt(raw, int64(indexOff)); err != nil {
			return nil, readAtErr("stream index", err)
		}
	}
	index := make([]streamIndexEntry, count)
	end := uint64(streamHeaderBytes)
	for i := range index {
		index[i].Offset = binary.LittleEndian.Uint64(raw[16*i:])
		index[i].Length = binary.LittleEndian.Uint64(raw[16*i+8:])
		// Steps are appended back to back, so the index must tile
		// [header, indexOff) exactly; anything else is corruption.
		if index[i].Offset != end || index[i].Length == 0 {
			return nil, fmt.Errorf("core: %w: stream index entry %d ([%d,+%d)) does not follow previous step at %d",
				errCorrupt, i, index[i].Offset, index[i].Length, end)
		}
		end += index[i].Length
	}
	if end != indexOff {
		return nil, fmt.Errorf("core: %w: stream steps end at %d, index starts at %d", errCorrupt, end, indexOff)
	}
	return &StreamReader{r: r, index: index}, nil
}

// Steps returns the number of steps in the stream.
func (sr *StreamReader) Steps() int { return len(sr.index) }

// FooterOffset is where the step blocks end. For a stream OpenStream
// accepted, that is the validated footer index offset: the footer region
// [FooterOffset, size) covers every step's offset and length, so any
// append, truncation or rewrite of the stream changes its bytes. For a
// RecoverStream salvage it is where WriteTo places the rebuilt footer.
func (sr *StreamReader) FooterOffset() int64 {
	if len(sr.index) == 0 {
		return streamHeaderBytes
	}
	last := sr.index[len(sr.index)-1]
	return int64(last.Offset + last.Length)
}

// readStepBlock reads step i's raw block bytes.
func (sr *StreamReader) readStepBlock(i int) ([]byte, error) {
	if i < 0 || i >= len(sr.index) {
		return nil, fmt.Errorf("core: step %d out of range [0,%d)", i, len(sr.index))
	}
	e := sr.index[i]
	buf := make([]byte, e.Length)
	if _, err := sr.r.ReadAt(buf, int64(e.Offset)); err != nil {
		return nil, readAtErr(fmt.Sprintf("stream step %d", i), err)
	}
	return buf, nil
}

// ReadStep decodes step i's fields. Only the step's own byte range is read:
// access cost is independent of the step's position in the stream.
func (sr *StreamReader) ReadStep(i int) (map[string]*CompressedField, error) {
	buf, err := sr.readStepBlock(i)
	if err != nil {
		return nil, err
	}
	return parseStepBlock(buf, i)
}

// PartitionLayout locates one partition's codec-native stream inside the
// v3 file (offsets are absolute file positions).
type PartitionLayout struct {
	Codec codec.ID
	// BodyOffset/BodyLength span the codec-native stream — the bytes a
	// codec's Parse consumes, with the frame envelope already stripped.
	BodyOffset, BodyLength int64
}

// FieldLayout locates one field of one step: its complete v2 archive
// payload and each partition's codec-native stream within it. This is the
// structural view an archive server serves from — it can hand a stored
// field to a client as one file range (ArchiveOffset/ArchiveLength) or
// splice individual partition streams without ever decoding a frame.
type FieldLayout struct {
	Name                     string
	Nx, Ny, Nz, PartitionDim int
	// ArchiveOffset/ArchiveLength span the field's v2 archive (header
	// included) inside the stream file.
	ArchiveOffset, ArchiveLength int64
	Partitions                   []PartitionLayout
}

// StepLayout maps step i's byte structure without decoding any codec
// frame: field names and geometry, the file range of each field's v2
// archive, and the file range of every partition's codec-native stream.
// Validation matches ReadStep's structural checks (counts, ordering,
// truncation, envelope headers); the codec-native payloads themselves are
// not parsed — their own magic/CRC checks run when the bytes are used.
func (sr *StreamReader) StepLayout(i int) ([]FieldLayout, error) {
	buf, err := sr.readStepBlock(i)
	if err != nil {
		return nil, err
	}
	base := int64(sr.index[i].Offset)
	var layouts []FieldLayout
	err = walkStepBlock(buf, i, func(name string, off int, payload []byte) error {
		fl, err := fieldLayout(payload, base+int64(off))
		if err != nil {
			return err
		}
		fl.Name = name
		layouts = append(layouts, fl)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return layouts, nil
}

// fieldLayout walks one v2 archive's structure: the only decoder of the
// v2 header and partition envelopes. base is the archive's absolute
// offset in the stream file (0 for a standalone archive); data is its
// complete byte range.
func fieldLayout(data []byte, base int64) (FieldLayout, error) {
	var fl FieldLayout
	if len(data) < archiveHeader {
		return fl, fmt.Errorf("core: %w: archive shorter than header", errCorrupt)
	}
	if string(data[0:4]) != archiveMagic {
		return fl, fmt.Errorf("core: %w: bad archive magic %q", errCorrupt, data[0:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != archiveVersion {
		return fl, fmt.Errorf("core: %w: unsupported archive version %d", errCorrupt, v)
	}
	fl.Nx = int(binary.LittleEndian.Uint32(data[8:12]))
	fl.Ny = int(binary.LittleEndian.Uint32(data[12:16]))
	fl.Nz = int(binary.LittleEndian.Uint32(data[16:20]))
	fl.PartitionDim = int(binary.LittleEndian.Uint32(data[20:24]))
	count := int(binary.LittleEndian.Uint32(data[24:28]))
	// A partition costs at least its 4-byte length prefix, so a count beyond
	// the remaining bytes/4 is corrupt; rejecting it here also keeps the
	// Partitions pre-allocation honest on malicious headers.
	// maxArchiveDim bounds each axis so Nx·Ny·Nz cannot overflow int and a
	// hostile header cannot make Decompress allocate an absurd field.
	const maxArchiveDim = 1 << 20
	if fl.Nx <= 0 || fl.Ny <= 0 || fl.Nz <= 0 || fl.PartitionDim <= 0 || count <= 0 ||
		fl.Nx > maxArchiveDim || fl.Ny > maxArchiveDim || fl.Nz > maxArchiveDim ||
		count > (len(data)-archiveHeader)/4 {
		return fl, fmt.Errorf("core: %w: invalid archive header (%d×%d×%d / dim %d / %d parts)",
			errCorrupt, fl.Nx, fl.Ny, fl.Nz, fl.PartitionDim, count)
	}
	fl.ArchiveOffset, fl.ArchiveLength = base, int64(len(data))
	fl.Partitions = make([]PartitionLayout, 0, count)
	pos := archiveHeader
	for i := 0; i < count; i++ {
		if pos+4 > len(data) {
			return fl, fmt.Errorf("core: %w: archive truncated at partition %d", errCorrupt, i)
		}
		n := int(binary.LittleEndian.Uint32(data[pos : pos+4]))
		pos += 4
		if pos+n > len(data) {
			return fl, fmt.Errorf("core: %w: partition %d stream truncated", errCorrupt, i)
		}
		id, body, err := codec.FrameBody(data[pos : pos+n])
		if err != nil {
			return fl, fmt.Errorf("core: partition %d: %w: %w", i, errCorrupt, err)
		}
		bodyOff := base + int64(pos) + int64(n-len(body))
		fl.Partitions = append(fl.Partitions, PartitionLayout{
			Codec: id, BodyOffset: bodyOff, BodyLength: int64(len(body)),
		})
		pos += n
	}
	if pos != len(data) {
		return fl, fmt.Errorf("core: %w: %d trailing bytes in archive", errCorrupt, len(data)-pos)
	}
	return fl, nil
}

// minStepFieldBytes is the least a step-block field entry can occupy:
// name length, one name byte, payload length. A field count beyond the
// block's bytes divided by it cannot be honest.
const minStepFieldBytes = 2 + 1 + 4

// walkStepBlock validates one v3 step block and calls fn for each field
// entry in order with its name, the payload's offset within buf, and the
// payload (a v2 archive). It is the only decoder of step-block field
// entries; an fn error stops the walk and is returned with the step and
// field position added.
func walkStepBlock(buf []byte, step int, fn func(name string, off int, payload []byte) error) error {
	if len(buf) < 4 {
		return fmt.Errorf("core: %w: step %d block shorter than field count", errCorrupt, step)
	}
	count := int(binary.LittleEndian.Uint32(buf[0:4]))
	if count <= 0 || count > len(buf)/minStepFieldBytes+1 {
		return fmt.Errorf("core: %w: step %d has field count %d", errCorrupt, step, count)
	}
	pos := 4
	prevName := ""
	for j := 0; j < count; j++ {
		if pos+2 > len(buf) {
			return fmt.Errorf("core: %w: step %d truncated at field %d name length", errCorrupt, step, j)
		}
		nameLen := int(binary.LittleEndian.Uint16(buf[pos : pos+2]))
		pos += 2
		if nameLen == 0 || pos+nameLen > len(buf) {
			return fmt.Errorf("core: %w: step %d truncated inside field %d name", errCorrupt, step, j)
		}
		name := string(buf[pos : pos+nameLen])
		pos += nameLen
		// The writer emits strictly increasing (sorted, unique) names, so a
		// block violating that order is hostile: a repeated name would
		// otherwise collapse silently into a map, and an unsorted block
		// would re-serialize differently than it parsed. Order is checked
		// against the previous name, which also catches every duplicate —
		// equal names are adjacent in sorted order, and a non-adjacent
		// repeat necessarily breaks the ordering first.
		if name <= prevName {
			if name == prevName {
				return fmt.Errorf("core: %w: step %d has duplicate field %q", errCorrupt, step, name)
			}
			return fmt.Errorf("core: %w: step %d field %q out of sorted order (follows %q)",
				errCorrupt, step, name, prevName)
		}
		prevName = name
		if pos+4 > len(buf) {
			return fmt.Errorf("core: %w: step %d truncated at field %q payload length", errCorrupt, step, name)
		}
		n := int(binary.LittleEndian.Uint32(buf[pos : pos+4]))
		pos += 4
		if n < 0 || pos+n > len(buf) {
			return fmt.Errorf("core: %w: step %d field %q payload truncated", errCorrupt, step, name)
		}
		if err := fn(name, pos, buf[pos:pos+n]); err != nil {
			// The nested v2 walk already tagged ErrCorruptArchive; keep its
			// chain intact and add the step/field position.
			return fmt.Errorf("core: step %d field %q: %w", step, name, err)
		}
		pos += n
	}
	if pos != len(buf) {
		return fmt.Errorf("core: %w: step %d has %d trailing bytes", errCorrupt, step, len(buf)-pos)
	}
	return nil
}

// parseStepBlock decodes every field of one step block.
func parseStepBlock(buf []byte, step int) (map[string]*CompressedField, error) {
	fields := make(map[string]*CompressedField)
	err := walkStepBlock(buf, step, func(name string, _ int, payload []byte) error {
		cf, err := ParseCompressedField(payload)
		if err != nil {
			return err
		}
		fields[name] = cf
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fields, nil
}
