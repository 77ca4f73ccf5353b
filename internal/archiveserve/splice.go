package archiveserve

import (
	"fmt"

	"repro/internal/apierr"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/zfp"
)

// SpliceArchive derives the rate-R form of a stored v2 ZFP field archive
// locally: every partition stored above R is truncated to the rate's bit
// budget, one stored at or below R passes through unchanged, and the
// archive envelope is rebuilt around the results. This is the same
// computation the archive server runs for ?rate=R — a served response and
// SpliceArchive over the stored bytes are byte-identical, which is what
// lets a client (or the CI smoke gate) verify a server without trusting
// it.
func SpliceArchive(data []byte, rate float64) ([]byte, error) {
	if err := (zfp.Options{Rate: rate}).Validate(); err != nil {
		return nil, fmt.Errorf("archiveserve: %w: %v", apierr.ErrBadConfig, err)
	}
	cf, err := core.ParseCompressedField(data)
	if err != nil {
		return nil, err
	}
	out := &core.CompressedField{
		Nx: cf.Nx, Ny: cf.Ny, Nz: cf.Nz,
		PartitionDim: cf.PartitionDim,
		Codec:        codec.ZFP,
		Parts:        make([]codec.Frame, 0, len(cf.Parts)),
	}
	var s zfp.Scratch
	for i, part := range cf.Parts {
		if part.CodecID() != codec.ZFP {
			return nil, fmt.Errorf("archiveserve: %w: partition %d is %q, rate slicing is a zfp property",
				apierr.ErrBadConfig, i, part.CodecID())
		}
		c, err := zfp.Parse(part.Bytes())
		if err != nil {
			return nil, err
		}
		if c.Rate > rate {
			ix, err := zfp.Reindex(c)
			if err != nil {
				return nil, err
			}
			if c, err = ix.TruncateToRate(rate, &s); err != nil {
				return nil, err
			}
		}
		out.Parts = append(out.Parts, codec.WrapZFP(c))
	}
	return out.Bytes(), nil
}
