package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/nyx"
	"repro/internal/stats"
)

// realizedBitRate calibrates in the given mode, plans at the budget, and
// compresses adaptively, returning the archive bit rate actually achieved.
func realizedBitRate(t *testing.T, e *Engine, f *grid.Field3D, mode CalibrationMode, avgEB float64) (float64, *Calibration) {
	t.Helper()
	ctx := context.Background()
	cal, err := e.Calibrate(ctx, f, CalibrationOptions{Mode: mode})
	if err != nil {
		t.Fatalf("calibrate (%v): %v", mode, err)
	}
	plan, err := e.Plan(ctx, f, cal, PlanOptions{AvgEB: avgEB})
	if err != nil {
		t.Fatalf("plan (%v): %v", mode, err)
	}
	cf, err := e.CompressAdaptive(ctx, f, plan)
	if err != nil {
		t.Fatalf("compress (%v): %v", mode, err)
	}
	return cf.BitRate(), cal
}

// TestModelScanMatchesProbeLadder is the headline property of the
// ratio-quality model: on every synthetic Nyx field, for both codecs,
// across a 25× span of error budgets, the bit rate the model-scan
// calibration achieves stays within 1% of what the full probe ladder
// achieves — at a small fraction of the fitting cost.
func TestModelScanMatchesProbeLadder(t *testing.T) {
	budgets := []float64{0.02, 0.05, 0.1, 0.2, 0.5} // × field mean |value|
	for _, id := range codec.IDs() {
		for _, name := range []string{
			nyx.FieldBaryonDensity,     // heavy-tailed, void-dominated
			nyx.FieldDarkMatterDensity, // even heavier tail
			nyx.FieldTemperature,       // smooth, strictly positive
			nyx.FieldVelocityX,         // signed, zero-crossing
		} {
			t.Run(string(id)+"/"+name, func(t *testing.T) {
				f := field(t, name)
				e := engine(t, Config{PartitionDim: 16, Codec: id})
				features, err := e.Features(context.Background(), f)
				if err != nil {
					t.Fatal(err)
				}
				mean := stats.MeanOf(features)
				for _, rel := range budgets {
					model, mcal := realizedBitRate(t, e, f, ModelScan, rel*mean)
					probe, _ := realizedBitRate(t, e, f, ProbeLadder, rel*mean)
					if mcal.FellBack {
						t.Fatalf("budget %g: model-scan fell back to the probe ladder (residual %.3f)",
							rel, mcal.Residual)
					}
					if mcal.Mode != ModelScan || len(mcal.RQ) == 0 {
						t.Fatalf("budget %g: calibration not model-scan: mode=%v rq=%d",
							rel, mcal.Mode, len(mcal.RQ))
					}
					if diff := model/probe - 1; math.Abs(diff) > 0.01 {
						t.Errorf("budget %g: model-chosen bit rate %.4f vs probe-chosen %.4f (%+.2f%%)",
							rel, model, probe, diff*100)
					}
				}
			})
		}
	}
}

// TestCalibrateConstantPartition: a field with one perfectly constant
// partition must still calibrate (the flat partition contributes a
// degenerate curve that the fit filters out) and produce a plan whose
// bounds honor the clamp ceiling.
func TestCalibrateConstantPartition(t *testing.T) {
	f := grid.NewField3D(32, 32, 32)
	for z := 0; z < 32; z++ {
		for y := 0; y < 32; y++ {
			for x := 0; x < 32; x++ {
				if x < 16 && y < 16 && z < 16 {
					f.Set(x, y, z, 3.0) // one constant partition
				} else {
					v := float32(x+2*y) + 40*float32(math.Sin(float64(z)*0.4))
					f.Set(x, y, z, v)
				}
			}
		}
	}
	e := engine(t, Config{PartitionDim: 16})
	ctx := context.Background()
	cal, err := e.Calibrate(ctx, f)
	if err != nil {
		t.Fatalf("constant partition broke calibration: %v", err)
	}
	const avgEB = 0.5
	plan, err := e.Plan(ctx, f, cal, PlanOptions{AvgEB: avgEB})
	if err != nil {
		t.Fatal(err)
	}
	ceiling := e.Config().ClampFactor * avgEB
	for i, eb := range plan.EBs {
		if eb <= 0 || eb > ceiling*(1+1e-9) {
			t.Errorf("partition %d: eb %g outside (0, %g]", i, eb, ceiling)
		}
	}
	if _, err := e.CompressAdaptive(ctx, f, plan); err != nil {
		t.Fatal(err)
	}
}

// TestCalibrateGuardBandFallback: an absurdly tight guard band must trip
// the shared-residual check and fall back to the probe ladder — recorded
// on the calibration, with a usable model and no stale scan state.
func TestCalibrateGuardBandFallback(t *testing.T) {
	f := field(t, nyx.FieldBaryonDensity)
	e := engine(t, Config{PartitionDim: 16})
	cal, err := e.Calibrate(context.Background(), f, CalibrationOptions{GuardBand: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !cal.FellBack {
		t.Fatal("guard band 1e-9 did not force a fallback")
	}
	if cal.Mode != ProbeLadder {
		t.Errorf("fallback mode %v, want probe-ladder", cal.Mode)
	}
	if cal.Residual <= 0 {
		t.Errorf("fallback residual %g, want > 0", cal.Residual)
	}
	if cal.RQ != nil {
		t.Error("fallback kept the rejected scan models")
	}
	if cal.Model == nil || cal.Model.Validate() != nil {
		t.Errorf("fallback model unusable: %+v", cal.Model)
	}
}

// TestCalibrateSingleSampleRequest is the regression for the quantile
// divide-by-zero: asking for one sample partition used to compute
// idx[i*(len-1)/(nSamp-1)] with nSamp==1. It must instead take the median
// partition (plus the top-feature merge) and calibrate normally.
func TestCalibrateSingleSampleRequest(t *testing.T) {
	f := field(t, nyx.FieldBaryonDensity)
	for _, mode := range []CalibrationMode{ModelScan, ProbeLadder} {
		cal, err := engine(t, Config{PartitionDim: 16}).Calibrate(context.Background(), f,
			CalibrationOptions{Partitions: 1, Mode: mode})
		if err != nil {
			t.Fatalf("Partitions:1 (%v): %v", mode, err)
		}
		if len(cal.PartitionIDs) < 2 {
			t.Errorf("Partitions:1 (%v): sampled %d partitions, top-feature merge should add more",
				mode, len(cal.PartitionIDs))
		}
	}
}

// TestCalibrationModeStrings pins the mode labels logged by the pipeline.
func TestCalibrationModeStrings(t *testing.T) {
	for mode, want := range map[CalibrationMode]string{
		ModelScan:           "model-scan",
		ProbeLadder:         "probe-ladder",
		CalibrationMode(42): "CalibrationMode(42)",
	} {
		if got := mode.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(mode), got, want)
		}
	}
}

// TestCalibrationRescaled: the O(1) correction scales every predicted rate
// uniformly and leaves the original calibration untouched.
func TestCalibrationRescaled(t *testing.T) {
	f := field(t, nyx.FieldBaryonDensity)
	e := engine(t, Config{PartitionDim: 16})
	cal, err := e.Calibrate(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	before := cal.Model.BitRate(1.5, 0.1)
	scaled := cal.Rescaled(1.3)
	if got := scaled.Model.BitRate(1.5, 0.1); math.Abs(got/before-1.3) > 1e-9 {
		t.Errorf("rescaled prediction %g, want 1.3× %g", got, before)
	}
	if got := cal.Model.BitRate(1.5, 0.1); got != before {
		t.Error("Rescaled mutated the original calibration")
	}
	for _, same := range []*Calibration{cal.Rescaled(1), cal.Rescaled(0), cal.Rescaled(-2)} {
		if same != cal {
			t.Error("degenerate factor should return the calibration unchanged")
		}
	}
	var nilCal *Calibration
	if nilCal.Rescaled(2) != nil {
		t.Error("nil calibration should rescale to nil")
	}
}

// TestModelScanDowngradesForPWREL: the scan models absolute residuals
// only, so a point-wise-relative engine must silently use the ladder.
func TestModelScanDowngradesForPWREL(t *testing.T) {
	f := field(t, nyx.FieldTemperature)
	e := engine(t, Config{PartitionDim: 16, Mode: codec.PWREL})
	cal, err := e.Calibrate(context.Background(), f,
		CalibrationOptions{EBs: []float64{1e-3, 3e-3, 1e-2, 3e-2, 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if cal.Mode != ProbeLadder {
		t.Errorf("PWREL calibrated in mode %v, want silent probe-ladder downgrade", cal.Mode)
	}
	if cal.FellBack {
		t.Error("downgrade flagged as a guard-band fallback")
	}
}
