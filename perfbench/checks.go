package main

import (
	"context"
	"fmt"
	"math"

	"repro/adaptive"
)

// partitionErrors returns max |x − x̂| over each partition of a field
// split into cubic bricks of edge dim, in partition-ID order.
func partitionErrors(orig, dec *adaptive.Field, dim int) ([]float64, error) {
	if orig.Nx != dec.Nx || orig.Ny != dec.Ny || orig.Nz != dec.Nz {
		return nil, fmt.Errorf("decoded field is %dx%dx%d, want %dx%dx%d", dec.Nx, dec.Ny, dec.Nz, orig.Nx, orig.Ny, orig.Nz)
	}
	p, err := adaptive.PartitionerForBrickDim(orig.Nx, dim)
	if err != nil {
		return nil, err
	}
	out := make([]float64, p.Count())
	for i, part := range p.Partitions() {
		var m float64
		for z := part.Z0; z < part.Z1; z++ {
			for y := part.Y0; y < part.Y1; y++ {
				base := orig.Index(part.X0, y, z)
				a := orig.Data[base : base+part.X1-part.X0]
				b := dec.Data[base : base+part.X1-part.X0]
				for x := range a {
					if d := math.Abs(float64(a[x]) - float64(b[x])); d > m {
						m = d
					}
				}
			}
		}
		out[i] = m
	}
	return out, nil
}

// boundCheck is the outcome of checking one decoded field against its
// per-partition bounds.
type boundCheck struct {
	violations  int // partitions over a guaranteed bound
	noGuarantee int // zfp partitions whose max-rate frame carries no bound
	dec         *adaptive.Field
}

// checkBounds decodes cf and checks every partition against ebs. A zfp
// partition over its bound at the maximum rate is the codec's documented
// no-guarantee case, counted apart from violations.
func checkBounds(ctx context.Context, cf *adaptive.CompressedField, orig *adaptive.Field, ebs []float64) (boundCheck, error) {
	dec, err := cf.Decompress(ctx)
	if err != nil {
		return boundCheck{}, fmt.Errorf("decode: %w", err)
	}
	errs, err := partitionErrors(orig, dec, cf.PartitionDim)
	if err != nil {
		return boundCheck{}, err
	}
	if len(errs) != len(ebs) || len(errs) != len(cf.Parts) {
		return boundCheck{}, fmt.Errorf("%d partitions, %d bounds, %d frames", len(errs), len(ebs), len(cf.Parts))
	}
	bc := boundCheck{dec: dec}
	for i, e := range errs {
		if e <= ebs[i] {
			continue
		}
		if cf.Parts[i].CodecID() == "zfp" && cf.Parts[i].BitRate() >= zfpMaxRate {
			bc.noGuarantee++
			continue
		}
		bc.violations++
	}
	return bc, nil
}

// zfpMaxRate is the top of the zfp rate search; a frame at this rate is
// the search's no-guarantee fallback.
const zfpMaxRate = 32

// pkRelErr is the largest relative power-spectrum deviation over shells
// with k < 10 (the paper's post-analysis criterion) between a field and
// its reconstruction.
func pkRelErr(orig, dec *adaptive.Field) (float64, error) {
	so, err := adaptive.ComputeSpectrum(orig, adaptive.SpectrumOptions{})
	if err != nil {
		return 0, err
	}
	sd, err := adaptive.ComputeSpectrum(dec, adaptive.SpectrumOptions{})
	if err != nil {
		return 0, err
	}
	return adaptive.SpectrumMaxDeviation(so, sd, 10)
}

// countingWriter counts the bytes written to it and drops them.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
