package bayes

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"lpvs/internal/stats"
)

func TestDefaultPriorMidpoint(t *testing.T) {
	e := NewGammaEstimator()
	// With a vague prior (sigma=12) the truncated expectation should sit
	// near the midpoint of the support.
	mid := (DefaultGammaL + DefaultGammaU) / 2
	if math.Abs(e.Gamma()-mid) > 0.01 {
		t.Fatalf("prior gamma = %v, want about %v", e.Gamma(), mid)
	}
}

func TestGammaAlwaysWithinBounds(t *testing.T) {
	e := NewGammaEstimator()
	obsSeq := []float64{0.9, 0.9, 0.9, 0.9} // pushing above the support
	for _, o := range obsSeq {
		if err := e.Observe(o); err != nil {
			t.Fatal(err)
		}
		g := e.Gamma()
		if g < DefaultGammaL || g > DefaultGammaU {
			t.Fatalf("gamma = %v escaped [%v, %v]", g, DefaultGammaL, DefaultGammaU)
		}
	}
}

func TestPosteriorConvergesToTruth(t *testing.T) {
	const truth = 0.37
	rng := stats.NewRNG(11)
	e := NewGammaEstimator()
	for i := 0; i < 200; i++ {
		obs := stats.Clamp(rng.Normal(truth, DefaultObsSigma), 0.01, 0.99)
		if err := e.Observe(obs); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(e.Gamma()-truth) > 0.02 {
		t.Fatalf("posterior gamma = %v, want about %v", e.Gamma(), truth)
	}
	if e.Observations() != 200 {
		t.Fatalf("observations = %d, want 200", e.Observations())
	}
}

func TestPosteriorVarianceShrinks(t *testing.T) {
	e := NewGammaEstimator()
	prev := e.Sigma()
	for i := 0; i < 10; i++ {
		if err := e.Observe(0.3); err != nil {
			t.Fatal(err)
		}
		if e.Sigma() >= prev {
			t.Fatalf("sigma did not shrink at step %d: %v -> %v", i, prev, e.Sigma())
		}
		prev = e.Sigma()
	}
}

func TestUncertaintyShrinks(t *testing.T) {
	e := NewGammaEstimator()
	before := e.Uncertainty()
	for i := 0; i < 20; i++ {
		if err := e.Observe(0.31); err != nil {
			t.Fatal(err)
		}
	}
	if e.Uncertainty() >= before {
		t.Fatalf("uncertainty did not shrink: %v -> %v", before, e.Uncertainty())
	}
}

func TestObserveRejectsInvalid(t *testing.T) {
	e := NewGammaEstimator()
	for _, bad := range []float64{0, -0.3, 1, 1.5, math.NaN()} {
		if err := e.Observe(bad); !errors.Is(err, ErrNoObservation) {
			t.Errorf("Observe(%v) err = %v, want ErrNoObservation", bad, err)
		}
	}
	if e.Observations() != 0 {
		t.Fatal("rejected observations were counted")
	}
}

func TestOptions(t *testing.T) {
	e := NewGammaEstimator(
		WithPrior(0.5, 2),
		WithBounds(0.2, 0.8),
		WithObservationNoise(0.1),
	)
	if e.Mean() != 0.5 || e.Sigma() != 2 {
		t.Fatalf("prior not applied: mean=%v sigma=%v", e.Mean(), e.Sigma())
	}
	lo, hi := e.Bounds()
	if lo != 0.2 || hi != 0.8 {
		t.Fatalf("bounds not applied: [%v, %v]", lo, hi)
	}
}

func TestInvalidConstructionPanics(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"zero sigma", []Option{WithPrior(0.3, 0)}},
		{"zero obs noise", []Option{WithObservationNoise(0)}},
		{"inverted bounds", []Option{WithBounds(0.5, 0.1)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			NewGammaEstimator(c.opts...)
		})
	}
}

func TestConjugateUpdateMatchesClosedForm(t *testing.T) {
	e := NewGammaEstimator(WithPrior(0.2, 0.3), WithObservationNoise(0.1))
	if err := e.Observe(0.4); err != nil {
		t.Fatal(err)
	}
	// Closed form: precision-weighted average.
	pp, op := 1/(0.3*0.3), 1/(0.1*0.1)
	wantVar := 1 / (pp + op)
	wantMean := wantVar * (0.2*pp + 0.4*op)
	if math.Abs(e.Mean()-wantMean) > 1e-12 {
		t.Fatalf("mean = %v, want %v", e.Mean(), wantMean)
	}
	if math.Abs(e.Sigma()-math.Sqrt(wantVar)) > 1e-12 {
		t.Fatalf("sigma = %v, want %v", e.Sigma(), math.Sqrt(wantVar))
	}
}

func TestGammaBoundedProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := stats.NewRNG(seed)
		e := NewGammaEstimator()
		for i := 0; i < int(n%64); i++ {
			obs := stats.Clamp(rng.Float64(), 0.001, 0.999)
			if err := e.Observe(obs); err != nil {
				return false
			}
			g := e.Gamma()
			if g < DefaultGammaL-1e-9 || g > DefaultGammaU+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"prior", []Option{WithPrior(0.2, 0.1)}},
		{"bounds", []Option{WithBounds(0.05, 0.6)}},
	} {
		e := NewGammaEstimator(tc.opts...)
		checkCached(t, tc.name+"/new", e)
		for _, obs := range []float64{0.4, 0.22, 0.35} {
			if err := e.Observe(obs); err != nil {
				t.Fatal(err)
			}
			checkCached(t, tc.name+"/observe", e)
		}
		if err := e.Observe(1); err == nil {
			t.Fatal("observation 1 accepted")
		}
		checkCached(t, tc.name+"/rejected", e)
		snap := e.Snapshot()
		if snap.Gamma != e.Gamma() || snap.Mean != e.Mean() || snap.Sigma != e.Sigma() {
			t.Fatalf("%s: snapshot %+v disagrees with accessors", tc.name, snap)
		}
		if snap.Observations != 3 {
			t.Fatalf("%s: observations = %d, want 3", tc.name, snap.Observations)
		}
		if snap.Uncertainty != e.Uncertainty() {
			t.Fatalf("%s: uncertainty %v != %v", tc.name, snap.Uncertainty, e.Uncertainty())
		}
	}
}

// checkCached asserts that the cached Gamma and Uncertainty carry the
// exact bits of Eq. (19) and the truncated standard deviation
// evaluated from the estimator's current posterior.
func checkCached(t *testing.T, where string, e *GammaEstimator) {
	t.Helper()
	lo, hi := e.Bounds()
	want := stats.TruncNormalMean(e.Mean(), e.Sigma(), lo, hi)
	if math.Float64bits(e.Gamma()) != math.Float64bits(want) {
		t.Fatalf("%s: Gamma() = %v, Eq. (19) gives %v", where, e.Gamma(), want)
	}
	wantU := math.Sqrt(stats.TruncNormalVar(e.Mean(), e.Sigma(), lo, hi))
	if math.Float64bits(e.Uncertainty()) != math.Float64bits(wantU) {
		t.Fatalf("%s: Uncertainty() = %v, want %v", where, e.Uncertainty(), wantU)
	}
}
