package main

import (
	"fmt"
	"math"
	"time"

	"dpreverser/internal/diagtool"
	"dpreverser/internal/experiments"
	"dpreverser/internal/gp"
	"dpreverser/internal/reverser"
	"dpreverser/internal/rig"
	"dpreverser/internal/sim"
	"dpreverser/internal/vehicle"
)

// captureSeed is the fixed rig seed of every workload's captures. The
// command-line seed only orders the jobs, so the exact counts computed
// over the fixed job set repeat in every run.
const captureSeed = 1

// carCapture is one fleet car's simulated capture plus the vehicle that
// produced it, kept open until set-up has resolved its ground truth.
type carCapture struct {
	Name    string
	Capture rig.Capture
	veh     *vehicle.Vehicle
}

// simulateFleet collects one capture per fleet car (or per named car
// when names is non-empty). quick selects the short recording durations
// dpreversed's load generator uses; otherwise the paper's durations.
func simulateFleet(names []string, quick bool) ([]carCapture, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []carCapture
	for _, p := range vehicle.Fleet() {
		if len(want) > 0 && !want[p.Car] {
			continue
		}
		cap, veh, err := collect(p, quick)
		if err != nil {
			closeCars(out)
			return nil, err
		}
		out = append(out, carCapture{Name: p.Car, Capture: cap, veh: veh})
	}
	if len(out) == 0 || (len(want) > 0 && len(out) != len(want)) {
		closeCars(out)
		return nil, fmt.Errorf("fleet selection %v matched %d cars", names, len(out))
	}
	return out, nil
}

// collect runs one car's rig session.
func collect(p vehicle.Profile, quick bool) (rig.Capture, *vehicle.Vehicle, error) {
	tool, veh, err := diagtool.ForProfile(p, sim.NewClock(0))
	if err != nil {
		return rig.Capture{}, nil, fmt.Errorf("simulating %s: %w", p.Car, err)
	}
	defer tool.Close()
	cfg := rig.DefaultConfig()
	cfg.Seed = captureSeed
	if quick {
		cfg.ReadDuration = 10 * time.Second
		cfg.AlignDuration = 5 * time.Second
		cfg.TestDuration = time.Second
	}
	r := rig.New(tool, veh, cfg)
	defer r.Close()
	cap, err := r.RunFull()
	if err != nil {
		veh.Close()
		return rig.Capture{}, nil, fmt.Errorf("capturing %s: %w", p.Car, err)
	}
	return cap, veh, nil
}

// closeCars releases the simulated vehicles.
func closeCars(cars []carCapture) {
	for _, c := range cars {
		if c.veh != nil {
			c.veh.Close()
		}
	}
}

// truthTable resolves the ground truth of every ESV in a reference result.
type truthTable map[reverser.StreamKey]experiments.Truth

func resolveTruth(veh *vehicle.Vehicle, res *reverser.Result) truthTable {
	tt := truthTable{}
	for _, e := range res.ESVs {
		if t, ok := experiments.TruthFor(veh, e.Key); ok {
			tt[e.Key] = t
		}
	}
	return tt
}

// formulaMatches is the benchmark's own ground-truth check: the formula
// must reproduce the vendor decode on every row of the stream's dataset
// to within 1 + 3% of the true value. It is fixed here rather than shared
// with the experiments harness, so a change to that oracle does not move
// the benchmark's count.
func formulaMatches(f *gp.Node, t experiments.Truth, rows [][]float64) bool {
	if f == nil || len(rows) == 0 {
		return false
	}
	for _, row := range rows {
		want := t.Decode(row)
		if math.IsNaN(want) {
			return false
		}
		if math.Abs(f.Eval(row)-want) > 1.0+0.03*math.Abs(want) {
			return false
		}
	}
	return true
}

// formulasCorrect counts the result's ESV formulas that match ground truth
// on their stream's rows.
func formulasCorrect(res *reverser.Result, tt truthTable) int {
	rows := map[reverser.StreamKey][][]float64{}
	for _, sd := range res.Streams {
		if sd.Dataset != nil {
			rows[sd.Key] = sd.Dataset.X
		}
	}
	n := 0
	for _, e := range res.ESVs {
		if t, ok := tt[e.Key]; ok && formulaMatches(e.Formula, t, rows[e.Key]) {
			n++
		}
	}
	return n
}

// quickOptions is the pipeline configuration of `dpreversed -quick`: the
// reduced 150×10 GP budget.
func quickOptions() []reverser.Option {
	cfg := reverser.DefaultConfig()
	cfg.GP.PopulationSize = 150
	cfg.GP.Generations = 10
	cfg.GP.Islands = 1
	return []reverser.Option{reverser.WithConfig(cfg)}
}

// paperOptions is the paper's GP budget (1000×30), the default
// configuration `dpreverse` runs with, spread over nproc workers.
func paperOptions() []reverser.Option {
	return []reverser.Option{
		reverser.WithConfig(reverser.DefaultConfig()),
		reverser.WithParallelism(nproc()),
	}
}
