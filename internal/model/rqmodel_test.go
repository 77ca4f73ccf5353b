package model

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// scanned builds a prediction-kind model over a synthetic error
// distribution: mass hitRate predicts exactly, the rest decays
// geometrically across magnitudes around scale.
func scanned(n int, hitRate, scale float64) *RQModel {
	d := &stats.ErrDist{}
	hits := int(float64(n) * hitRate)
	for i := 0; i < hits; i++ {
		d.Add(0)
	}
	for i := hits; i < n; i++ {
		d.Add(scale * math.Exp(float64(i%13)-6))
	}
	return &RQModel{Kind: RQPrediction, Dist: d, N: n, ValueRange: 100, HeaderBits: 416}
}

func TestRQModelValidate(t *testing.T) {
	var nilModel *RQModel
	if nilModel.Validate() == nil {
		t.Error("nil model validated")
	}
	if (&RQModel{Kind: RQPrediction, N: 0}).Validate() == nil {
		t.Error("zero-cell model validated")
	}
	if err := (&RQModel{Kind: RQPrediction, N: 10}).Validate(); err != ErrNoScan {
		t.Errorf("scanless prediction model: %v, want ErrNoScan", err)
	}
	if err := (&RQModel{Kind: RQTransform, N: 10, ValueRange: 1}).Validate(); err != nil {
		t.Errorf("transform model needs no scan: %v", err)
	}
	if err := scanned(1000, 0.5, 0.1).Validate(); err != nil {
		t.Errorf("scanned model: %v", err)
	}
}

func TestRQPredictionPriorMonotone(t *testing.T) {
	m := scanned(4096, 0.3, 0.5)
	prev := math.Inf(1)
	for _, eb := range []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10} {
		b := m.PriorBitRate(eb)
		if b <= 0 || math.IsNaN(b) {
			t.Fatalf("eb %g: prior %g", eb, b)
		}
		if b > prev+1e-9 {
			t.Errorf("prior rose from %g to %g as eb loosened to %g", prev, b, eb)
		}
		prev = b
	}
	if m.PriorBitRate(0) != math.Inf(1) {
		t.Error("eb 0 should predict infinite rate")
	}
	// Memoized evaluations must be identical to fresh ones.
	if a, b := m.PriorBitRate(0.01), m.PriorBitRate(0.01); a != b {
		t.Errorf("memoized prior %g != %g", b, a)
	}
}

func TestRQPredictionAnchorScalesCurve(t *testing.T) {
	m := scanned(4096, 0.3, 0.5)
	const eb = 0.05
	prior := m.PriorBitRate(eb)
	if got := m.BitRate(eb); got != prior {
		t.Fatalf("unanchored BitRate %g, want prior %g", got, prior)
	}
	m.Anchor(eb, 2*prior) // observation says the prior is 2× too low
	if got := m.BitRate(eb); math.Abs(got-2*prior) > 1e-9 {
		t.Errorf("anchored BitRate %g, want %g", got, 2*prior)
	}
	// The multiplicative correction applies across the curve.
	other := 0.4
	if got, want := m.BitRate(other), 2*m.PriorBitRate(other); math.Abs(got-want) > 1e-9 {
		t.Errorf("BitRate(%g) = %g, want scaled prior %g", other, got, want)
	}
}

func TestRQTransformModel(t *testing.T) {
	m := &RQModel{Kind: RQTransform, N: 4096, ValueRange: 64}
	// log₂(range/eb): one more bit per halving of the bound.
	if got := m.PriorBitRate(1); math.Abs(got-6) > 1e-9 {
		t.Errorf("prior at eb=1: %g, want 6", got)
	}
	if got := m.PriorBitRate(0.5) - m.PriorBitRate(1); math.Abs(got-1) > 1e-9 {
		t.Errorf("halving the bound added %g bits, want 1", got)
	}
	if got := m.PriorBitRate(0); got != 32 {
		t.Errorf("eb 0 rate %g, want max 32", got)
	}
	if got := m.PriorBitRate(1e30); got != 1e-3 {
		t.Errorf("huge eb rate %g, want floor", got)
	}
	if got := (&RQModel{Kind: RQTransform, N: 10}).PriorBitRate(1); got != 1e-3 {
		t.Errorf("rangeless transform rate %g, want floor", got)
	}
	// Anchoring shifts the intercept, preserving the logarithmic slope.
	m.Anchor(1, 8)
	if got := m.BitRate(1); math.Abs(got-8) > 1e-9 {
		t.Errorf("anchored rate %g, want 8", got)
	}
	if got := m.BitRate(0.25) - m.BitRate(1); math.Abs(got-2) > 1e-9 {
		t.Errorf("two halvings added %g bits after anchoring, want 2", got)
	}
}

func TestRQQualityPredictions(t *testing.T) {
	m := scanned(1000, 0.5, 0.1)
	if got := m.PredictMaxError(0.25); got != 0.25 {
		t.Errorf("max error %g, want the bound", got)
	}
	// PSNR from U[−eb,+eb] quantization noise: halving eb gains ~6.02 dB.
	gain := m.PredictPSNR(0.05) - m.PredictPSNR(0.1)
	if math.Abs(gain-20*math.Log10(2)) > 1e-9 {
		t.Errorf("halving eb gained %g dB, want %g", gain, 20*math.Log10(2))
	}
	if !math.IsInf(m.PredictPSNR(0), 1) {
		t.Error("zero bound should predict infinite PSNR")
	}
}

func TestRQCurveFeedsRateModelFit(t *testing.T) {
	ebs := []float64{0.01, 0.03, 0.1, 0.3, 1}
	var curves []Curve
	for i, f := range []float64{1, 3, 10} {
		m := scanned(4096, 0.2+0.2*float64(i), 0.3*f)
		m.Anchor(ebs[2], m.PriorBitRate(ebs[2])*1.3)
		curves = append(curves, m.Curve(f, ebs))
	}
	rm, err := Calibrate(curves)
	if err != nil {
		t.Fatalf("Eq.-15 fit over synthesized curves: %v", err)
	}
	if rm.Exponent >= 0 {
		t.Errorf("fitted exponent %g, want negative (rate falls with eb)", rm.Exponent)
	}
}

func TestRQPredictionEdgeDistributions(t *testing.T) {
	// All-hit distribution: p₀ = 1, no RLE mass, rate ≈ header only.
	all := &stats.ErrDist{}
	for i := 0; i < 4096; i++ {
		all.Add(0)
	}
	m := &RQModel{Kind: RQPrediction, Dist: all, N: 4096, HeaderBits: 416}
	if got := m.PriorBitRate(0.1); got <= 0 || got > 1 {
		t.Errorf("perfectly predictable partition rate %g, want small positive", got)
	}
	// All-outlier distribution: everything beyond the radius is 32-bit
	// verbatim plus a marker.
	far := &stats.ErrDist{}
	for i := 0; i < 512; i++ {
		far.Add(1e12)
	}
	m = &RQModel{Kind: RQPrediction, Dist: far, N: 512, Radius: 4}
	if got := m.PriorBitRate(1e-6); got < 32 {
		t.Errorf("all-outlier partition rate %g, want ≥ 32", got)
	}
	// Empty scan predicts nothing rather than NaN.
	if got := (&RQModel{Kind: RQPrediction, Dist: &stats.ErrDist{}, N: 10}).PriorBitRate(0.1); got != 0 {
		t.Errorf("empty-scan prior %g, want 0", got)
	}
}
