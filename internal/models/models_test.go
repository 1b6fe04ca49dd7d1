package models

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"geomob/internal/census"
	"geomob/internal/geo"
)

// syntheticOD builds an OD dataset whose flows follow a known gravity law
// F = C·m^α·n^β/d^γ with multiplicative lognormal noise.
func syntheticOD(t *testing.T, c, alpha, beta, gamma, noise float64, seed uint64) *OD {
	t.Helper()
	rs, err := census.Australia().Regions(census.ScaleNational)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, seed+1))
	pop := rs.Populations()
	// Scale down to "Twitter population" magnitudes.
	for i := range pop {
		pop[i] /= 100
	}
	n := len(pop)
	flow := make([][]float64, n)
	for i := range flow {
		flow[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := geo.Haversine(rs.Areas[i].Center, rs.Areas[j].Center) / 1000
			mean := c * math.Pow(pop[i], alpha) * math.Pow(pop[j], beta) / math.Pow(d, gamma)
			f := mean * math.Exp(rng.NormFloat64()*noise)
			flow[i][j] = math.Round(f)
		}
	}
	od, err := BuildOD(rs.Areas, pop, flow)
	if err != nil {
		t.Fatal(err)
	}
	return od
}

func TestBuildODValidation(t *testing.T) {
	rs, _ := census.Australia().Regions(census.ScaleNational)
	pop := rs.Populations()
	n := len(pop)
	flow := make([][]float64, n)
	for i := range flow {
		flow[i] = make([]float64, n)
	}
	if _, err := BuildOD(rs.Areas[:2], pop[:2], flow[:2]); err == nil {
		t.Error("too few areas should fail")
	}
	if _, err := BuildOD(rs.Areas, pop[:5], flow); err == nil {
		t.Error("population length mismatch should fail")
	}
	if _, err := BuildOD(rs.Areas, pop, flow[:5]); err == nil {
		t.Error("flow length mismatch should fail")
	}
	ragged := make([][]float64, n)
	for i := range ragged {
		ragged[i] = make([]float64, 3)
	}
	if _, err := BuildOD(rs.Areas, pop, ragged); err == nil {
		t.Error("ragged flow matrix should fail")
	}
	negPop := append([]float64(nil), pop...)
	negPop[0] = -1
	if _, err := BuildOD(rs.Areas, negPop, flow); err == nil {
		t.Error("negative population should fail")
	}
}

func TestODSTermProperties(t *testing.T) {
	od := syntheticOD(t, 10, 1, 1, 2, 0, 7)
	n := od.N()
	var total float64
	for _, p := range od.Pop {
		total += p
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			s := od.S[i][j]
			if s < 0 {
				t.Fatalf("negative s at (%d,%d)", i, j)
			}
			// s excludes origin and destination.
			if s > total-od.Pop[i]-od.Pop[j]+1e-9 {
				t.Fatalf("s too large at (%d,%d): %v", i, j, s)
			}
		}
	}
	// s must be monotone in distance for a fixed origin (larger discs
	// contain at least as much population, modulo the excluded target).
	for i := 0; i < n; i++ {
		type dj struct {
			d, s, pop float64
		}
		var list []dj
		for j := 0; j < n; j++ {
			if i != j {
				list = append(list, dj{od.DistKM[i][j], od.S[i][j], od.Pop[j]})
			}
		}
		for a := range list {
			for b := range list {
				if list[a].d < list[b].d {
					// s_b plus its own excluded destination must cover s_a
					// minus a's excluded destination; allow the excluded
					// masses as slack.
					if list[a].s > list[b].s+list[a].pop+list[b].pop+1e-9 {
						t.Fatalf("s not monotone from origin %d: d=%v s=%v vs d=%v s=%v",
							i, list[a].d, list[a].s, list[b].d, list[b].s)
					}
				}
			}
		}
	}
}

func TestSydneyMelbourneSTermIsSparse(t *testing.T) {
	// The paper's core geographic argument: Australia's population is
	// coastal and sparse, so s(Sydney→Melbourne) is small relative to the
	// total — unlike a uniformly settled country.
	rs, _ := census.Australia().Regions(census.ScaleNational)
	pop := rs.Populations()
	n := len(pop)
	flow := make([][]float64, n)
	for i := range flow {
		flow[i] = make([]float64, n)
		for j := range flow[i] {
			if i != j {
				flow[i][j] = 1
			}
		}
	}
	od, err := BuildOD(rs.Areas, pop, flow)
	if err != nil {
		t.Fatal(err)
	}
	syd := rs.Index("Sydney")
	mel := rs.Index("Melbourne")
	var total float64
	for _, p := range pop {
		total += p
	}
	s := od.S[syd][mel]
	if s/total > 0.25 {
		t.Errorf("s(Sydney→Melbourne)/total = %.2f — too dense for the sparse-Australia argument", s/total)
	}
}

func TestGravity4RecoversPlantedParameters(t *testing.T) {
	trueC, trueAlpha, trueBeta, trueGamma := 8.0, 0.9, 1.1, 2.0
	od := syntheticOD(t, trueC, trueAlpha, trueBeta, trueGamma, 0.05, 11)
	g := &Gravity4{}
	if err := g.Fit(od); err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Alpha-trueAlpha) > 0.1 {
		t.Errorf("alpha = %v, want %v", g.Alpha, trueAlpha)
	}
	if math.Abs(g.Beta-trueBeta) > 0.1 {
		t.Errorf("beta = %v, want %v", g.Beta, trueBeta)
	}
	if math.Abs(g.Gamma-trueGamma) > 0.15 {
		t.Errorf("gamma = %v, want %v", g.Gamma, trueGamma)
	}
}

func TestGravity2RecoversGamma(t *testing.T) {
	od := syntheticOD(t, 1.0, 1, 1, 1.7, 0.05, 13)
	g := &Gravity2{}
	if err := g.Fit(od); err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Gamma-1.7) > 0.12 {
		t.Errorf("gamma = %v, want 1.7", g.Gamma)
	}
}

func TestModelsPredictBeforeFit(t *testing.T) {
	od := syntheticOD(t, 10, 1, 1, 2, 0, 17)
	for _, m := range All() {
		if _, err := m.Predict(od, 0, 1); err == nil {
			t.Errorf("%s: predict before fit should fail", m.Name())
		}
	}
}

func TestModelsSelfPairRejected(t *testing.T) {
	od := syntheticOD(t, 10, 1, 1, 2, 0.01, 19)
	for _, m := range All() {
		if err := m.Fit(od); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if _, err := m.Predict(od, 3, 3); err == nil {
			t.Errorf("%s: self-pair predict should fail", m.Name())
		}
	}
}

func TestGravityBeatsRadiationOnGravityWorld(t *testing.T) {
	// Flows generated by a gravity law with Australia's geography: the
	// gravity models must dominate radiation, reproducing Table II's
	// ordering.
	od := syntheticOD(t, 10, 1, 1, 2.0, 0.3, 23)
	scores := map[string]*Metrics{}
	for _, m := range All() {
		if err := m.Fit(od); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		met, err := Evaluate(od, m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		scores[m.Name()] = met
	}
	g2 := scores["Gravity 2Param"]
	g4 := scores["Gravity 4Param"]
	rad := scores["Radiation"]
	if g2.PearsonLog <= rad.PearsonLog {
		t.Errorf("gravity-2 (r=%.3f) should beat radiation (r=%.3f)", g2.PearsonLog, rad.PearsonLog)
	}
	if g4.PearsonLog <= rad.PearsonLog {
		t.Errorf("gravity-4 (r=%.3f) should beat radiation (r=%.3f)", g4.PearsonLog, rad.PearsonLog)
	}
	if g2.HitRate50 <= rad.HitRate50 {
		t.Errorf("gravity-2 hitrate (%.3f) should beat radiation (%.3f)", g2.HitRate50, rad.HitRate50)
	}
	// All models must stay in the paper's plausible Pearson band.
	for name, met := range scores {
		if met.PearsonLog < 0.3 || met.PearsonLog > 1 {
			t.Errorf("%s: r=%.3f outside plausibility band", name, met.PearsonLog)
		}
	}
}

func TestEvaluateHitRateBounds(t *testing.T) {
	od := syntheticOD(t, 10, 1, 1, 2, 0.1, 29)
	g := &Gravity4{}
	if err := g.Fit(od); err != nil {
		t.Fatal(err)
	}
	met, err := Evaluate(od, g)
	if err != nil {
		t.Fatal(err)
	}
	if met.HitRate50 < 0 || met.HitRate50 > 1 {
		t.Errorf("hitrate out of bounds: %v", met.HitRate50)
	}
	if met.N == 0 {
		t.Error("no pairs evaluated")
	}
	if met.RMSELog < 0 {
		t.Errorf("negative RMSE: %v", met.RMSELog)
	}
}

func TestPerfectGravityDataGivesNearPerfectScores(t *testing.T) {
	od := syntheticOD(t, 10, 1, 1, 2.0, 0, 31) // zero noise
	g := &Gravity2{}
	if err := g.Fit(od); err != nil {
		t.Fatal(err)
	}
	met, err := Evaluate(od, g)
	if err != nil {
		t.Fatal(err)
	}
	// Rounding to integer flows is the only distortion.
	if met.PearsonLog < 0.98 {
		t.Errorf("noiseless gravity fit r=%.4f, want ~1", met.PearsonLog)
	}
}

func TestScatterSeries(t *testing.T) {
	od := syntheticOD(t, 10, 1, 1, 2, 0.2, 37)
	g := &Gravity2{}
	if err := g.Fit(od); err != nil {
		t.Fatal(err)
	}
	est, obs, binned, err := ScatterSeries(od, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != len(obs) || len(est) == 0 {
		t.Fatalf("scatter lengths: %d vs %d", len(est), len(obs))
	}
	if len(binned) == 0 {
		t.Fatal("no binned points")
	}
	for _, b := range binned {
		if b.Count <= 0 || b.MeanY <= 0 {
			t.Errorf("degenerate bin: %+v", b)
		}
	}
}

func TestRadiationKernelIsScaleFree(t *testing.T) {
	// Multiplying all populations by a constant must leave the radiation
	// kernel unchanged (m·n/((m+s)(m+n+s)) is homogeneous of degree 0).
	od1 := syntheticOD(t, 10, 1, 1, 2, 0.01, 41)
	rad := &Radiation{}
	if err := rad.Fit(od1); err != nil {
		t.Fatal(err)
	}
	k1 := rad.kernel(od1, 0, 1)
	scaled := make([]float64, len(od1.Pop))
	for i, p := range od1.Pop {
		scaled[i] = p * 7
	}
	od2, err := BuildOD(od1.Areas, scaled, od1.Flow)
	if err != nil {
		t.Fatal(err)
	}
	k2 := rad.kernel(od2, 0, 1)
	if math.Abs(k1-k2) > 1e-12 {
		t.Errorf("radiation kernel not scale-free: %v vs %v", k1, k2)
	}
}

func TestAllReturnsPaperOrder(t *testing.T) {
	ms := All()
	if len(ms) != 3 {
		t.Fatalf("All() returned %d models", len(ms))
	}
	want := []string{"Gravity 4Param", "Gravity 2Param", "Radiation"}
	for i, m := range ms {
		if m.Name() != want[i] {
			t.Errorf("model %d = %q, want %q", i, m.Name(), want[i])
		}
	}
}

// constModel predicts the same flow for every pair.
type constModel struct{ v float64 }

func (constModel) Name() string                             { return "constant" }
func (constModel) Fit(*OD) error                            { return nil }
func (m constModel) Predict(*OD, int, int) (float64, error) { return m.v, nil }

// TestEvaluateUndefinedFit: flows that cannot support the log-scale
// metrics — constant predictions, or too few positive pairs — are
// reported as ErrUndefinedFit, not as an opaque failure.
func TestEvaluateUndefinedFit(t *testing.T) {
	rs, err := census.Australia().Regions(census.ScaleNational)
	if err != nil {
		t.Fatal(err)
	}
	n := len(rs.Areas)
	pop := make([]float64, n)
	dense := make([][]float64, n)
	sparse := make([][]float64, n)
	for i := range dense {
		pop[i] = float64(10 * (i + 1))
		dense[i] = make([]float64, n)
		sparse[i] = make([]float64, n)
		for j := range dense[i] {
			if i != j {
				dense[i][j] = float64(1 + (i*n+j)%7)
			}
		}
	}
	sparse[0][1], sparse[1][0] = 4, 2
	for _, tc := range []struct {
		name string
		flow [][]float64
		m    Model
	}{
		{"constant predictions", dense, constModel{v: 10}},
		{"two positive pairs", sparse, constModel{v: 3}},
	} {
		od, err := BuildOD(rs.Areas, pop, tc.flow)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Evaluate(od, tc.m); !errors.Is(err, ErrUndefinedFit) {
			t.Errorf("%s: Evaluate error = %v, want ErrUndefinedFit", tc.name, err)
		}
	}
}
