package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{name: "empty", xs: nil, want: 0},
		{name: "single", xs: []float64{5}, want: 5},
		{name: "several", xs: []float64{1, 2, 3, 4}, want: 2.5},
		{name: "negative", xs: []float64{-1, 1}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); got != tt.want {
				t.Errorf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v", got)
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be infinite")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // sorted: 1 2 3 4
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {1.0 / 3, 2},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty Quantile should error")
	}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Error("negative q should error")
	}
	if _, err := Quantile(xs, 1.1); err == nil {
		t.Error("q > 1 should error")
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Quantile mutated its input")
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	slope, intercept, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Errorf("fit = %v, %v; want 2, 1", slope, intercept)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should error")
	}
	if _, _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate x should error")
	}
}

// TestLinearFitRecoversNoisySlope: the fit recovers a known slope from
// exact points regardless of offset and scale.
func TestLinearFitRecoversNoisySlope(t *testing.T) {
	f := func(rawSlope, rawIntercept float64) bool {
		slope := math.Mod(rawSlope, 1e3)
		intercept := math.Mod(rawIntercept, 1e3)
		if math.IsNaN(slope) || math.IsNaN(intercept) {
			return true
		}
		var xs, ys []float64
		for i := 0; i < 10; i++ {
			x := float64(i)
			xs = append(xs, x)
			ys = append(ys, slope*x+intercept)
		}
		got, gotB, err := LinearFit(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(got-slope) < 1e-6+1e-9*math.Abs(slope) &&
			math.Abs(gotB-intercept) < 1e-6+1e-9*math.Abs(intercept)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
