package scaling

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"dpreverser/internal/gp"
)

func col(vals ...float64) []float64 { return vals }

func TestFactorForBands(t *testing.T) {
	cases := []struct {
		name         string
		values       []float64
		allowEnlarge bool
		want         float64
	}{
		{"mid range untouched", col(2, 3, 5, 8), true, 1},
		{"tens reduced", col(20, 40, 80, 15), true, 0.1},
		{"hundreds reduced", col(200, 400, 800), true, 0.01},
		{"thousands reduced", col(2000, 4000, 8000), true, 0.001},
		{"ten-thousands reduced", col(20000, 40000, 99999), true, 1e-4},
		{"tenths enlarged", col(0.2, 0.4, 0.8), true, 10},
		{"hundredths enlarged", col(0.02, 0.04, 0.08), true, 100},
		{"thousandths enlarged", col(0.002, 0.004, 0.008), true, 1000},
		{"sub-thousandths enlarged", col(0.0002, 0.0004, 0.0008), true, 1e4},
		{"small X not enlarged", col(0.2, 0.4, 0.8), false, 1},
		{"majority rule: no scale", col(5, 5, 5, 200), true, 1},
		{"negatives use magnitude", col(-200, -400, -300), true, 0.01},
		{"all zero", col(0, 0, 0), true, 1},
		{"empty", nil, true, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := factorFor(c.values, c.allowEnlarge); got != c.want {
				t.Fatalf("factorFor(%v) = %v, want %v", c.values, got, c.want)
			}
		})
	}
}

func TestPlanForAndApply(t *testing.T) {
	d := &gp.Dataset{
		X: [][]float64{{200, 2}, {400, 3}, {800, 5}},
		Y: []float64{2000, 4000, 8000},
	}
	p := PlanFor(d)
	if p.YFactor != 0.001 {
		t.Fatalf("YFactor = %v, want 0.001", p.YFactor)
	}
	if p.XFactors[0] != 0.01 || p.XFactors[1] != 1 {
		t.Fatalf("XFactors = %v", p.XFactors)
	}
	scaled := p.Apply(d)
	if scaled.X[0][0] != 2 || scaled.X[0][1] != 2 || scaled.Y[0] != 2 {
		t.Fatalf("scaled = %+v", scaled)
	}
	// Input untouched.
	if d.X[0][0] != 200 || d.Y[0] != 2000 {
		t.Fatal("Apply mutated its input")
	}
}

func TestIdentity(t *testing.T) {
	if !(Plan{YFactor: 1, XFactors: []float64{1, 1}}).Identity() {
		t.Fatal("identity plan not recognised")
	}
	if (Plan{YFactor: 0.1, XFactors: []float64{1}}).Identity() {
		t.Fatal("scaling plan claimed identity")
	}
	if (Plan{YFactor: 1, XFactors: []float64{0.1}}).Identity() {
		t.Fatal("x-scaling plan claimed identity")
	}
}

func TestRestoreRewritesFormula(t *testing.T) {
	// Inferred on scaled data: Y' = X0'  (with X0' = 0.01*X0, Y' = 0.001*Y)
	// Restored: Y = 0.01*X0/0.001 = 10*X0.
	p := Plan{XFactors: []float64{0.01}, YFactor: 0.001}
	restored := p.Restore(gp.NewVar(0))
	for _, x := range []float64{0, 50, 200} {
		want := 10 * x
		if got := restored.Eval([]float64{x}); math.Abs(got-want) > 1e-9 {
			t.Fatalf("restored(%v) = %v, want %v (tree %q)", x, got, want, restored)
		}
	}
}

func TestRestoreIdentityPlanKeepsTree(t *testing.T) {
	p := Plan{XFactors: []float64{1, 1}, YFactor: 1}
	tree := gp.NewBinary(gp.OpMul, gp.NewVar(0), gp.NewVar(1))
	restored := p.Restore(tree)
	if restored.String() != tree.String() {
		t.Fatalf("identity restore changed %q to %q", tree, restored)
	}
}

// Property: for any plan factors from the Table 2 bands, Apply+Restore is
// semantics-preserving — a formula inferred perfectly on scaled data
// predicts the original data perfectly after Restore.
func TestApplyRestoreRoundTripProperty(t *testing.T) {
	f := func(xsRaw []uint16, yScaleIdx, xScaleIdx uint8) bool {
		if len(xsRaw) < 4 {
			return true
		}
		if len(xsRaw) > 40 {
			xsRaw = xsRaw[:40]
		}
		yFactors := []float64{1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100, 1000, 1e4}
		yf := yFactors[int(yScaleIdx)%len(yFactors)]
		xf := yFactors[int(xScaleIdx)%5] // reductions and identity only
		// Original relation: Y = 3*X + 7.
		d := &gp.Dataset{}
		for _, r := range xsRaw {
			x := float64(r % 1000)
			d.X = append(d.X, []float64{x})
			d.Y = append(d.Y, 3*x+7)
		}
		p := Plan{XFactors: []float64{xf}, YFactor: yf}
		scaled := p.Apply(d)
		// The exact formula on scaled data: Y' = yf*(3*(X'/xf) + 7).
		inferred := gp.NewBinary(gp.OpMul, gp.NewConst(yf),
			gp.NewBinary(gp.OpAdd,
				gp.NewBinary(gp.OpMul, gp.NewConst(3/xf), gp.NewVar(0)),
				gp.NewConst(7)))
		// Sanity: inferred must fit the scaled data.
		for i, row := range scaled.X {
			if math.Abs(inferred.Eval(row)-scaled.Y[i]) > 1e-6*(1+math.Abs(scaled.Y[i])) {
				return false
			}
		}
		restored := p.Restore(inferred)
		for i, row := range d.X {
			if math.Abs(restored.Eval(row)-d.Y[i]) > 1e-6*(1+math.Abs(d.Y[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInferEndToEndWithLargeMagnitudes(t *testing.T) {
	// Y = 4*X over X in the thousands — exactly the case Table 2 exists
	// for. InferContext must return a formula in original units.
	d := &gp.Dataset{}
	for x := 1000.0; x <= 3000; x += 50 {
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, 4*x)
	}
	cfg := gp.DefaultConfig()
	cfg.PopulationSize = 200
	cfg.Generations = 15
	cfg.Seed = 5
	res, err := InferContext(context.Background(), d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := gp.NewBinary(gp.OpMul, gp.NewConst(4), gp.NewVar(0))
	if !gp.EquivalentRel(res.Best, truth, d.X, 1.0, 0.02) {
		t.Fatalf("InferContext recovered %q (fitness %v)", res.Best, res.Fitness)
	}
}

func TestInferPropagatesErrors(t *testing.T) {
	if _, err := InferContext(context.Background(), &gp.Dataset{}, gp.DefaultConfig()); err == nil {
		t.Fatal("empty dataset accepted")
	}
}
