package main

import (
	"fmt"
	"math"
	"math/rand"

	"seqpoint"
)

// The paper workload reruns the paper's own pipeline: ground-truth
// training runs on every Table II configuration, SeqPoint selection on
// configuration #1, profiling of the selected iterations on every
// configuration, and projection against each full run.
const (
	paperBatch  = 64
	paperEpochs = 1
	// paperDataSeed fixes the corpora and shuffles. The benchmark seed
	// only permutes the order the configurations are visited in, which
	// must not change any output: the projection error is the paper's
	// headline number and may not move between runs.
	paperDataSeed = 1
	// paperMaxErrorPct is the bound papercheck holds on SeqPoint's
	// geomean total-time projection error, per network.
	paperMaxErrorPct = 1.0
	// paperUnitS is the nominal host time of one pipeline on a 2-core
	// Xeon; the run's fixed work is --seconds / paperUnitS pipelines,
	// at least one.
	paperUnitS = 25.0
)

type paperNetwork struct {
	name     string
	model    seqpoint.Model
	corpus   *seqpoint.Corpus
	schedule seqpoint.Schedule
}

type paperEnv struct {
	networks []paperNetwork
	configs  []seqpoint.Config
	order    []int // visiting order of configs
}

// setupPaper builds the models, corpora and configurations. small
// subsamples the corpora for the benchmark's own tests.
func setupPaper(seed int64, small bool) *paperEnv {
	iwslt, libri := seqpoint.IWSLT15(paperDataSeed), seqpoint.LibriSpeech100h(paperDataSeed)
	if small {
		iwslt = seqpoint.Subsample(iwslt, 1024, paperDataSeed)
		libri = seqpoint.Subsample(libri, 1024, paperDataSeed)
	}
	configs := seqpoint.TableII()
	return &paperEnv{
		networks: []paperNetwork{
			{"gnmt", seqpoint.NewGNMT(), iwslt, seqpoint.GNMTSchedule()},
			{"ds2", seqpoint.NewDS2(), libri, seqpoint.DS2Schedule()},
		},
		configs: configs,
		order:   rand.New(rand.NewSource(seed)).Perm(len(configs)),
	}
}

// paperOutput is everything one pipeline produces; its digest is the
// workload's correctness oracle.
type paperOutput struct {
	Runs       map[string][]seqpoint.RunSummary // per network, in config order
	Selections map[string]seqpoint.Selection
	ErrorPct   map[string][]float64 // per network, in config order
	GeomeanPct map[string]float64
	// AllGeomeanPct is the geomean over both networks and all configs.
	AllGeomeanPct float64
}

// paperCounts are the layer counts of one pipeline.
type paperCounts struct {
	iterations int // training iterations replayed
	profiled   int // SeqPoint iterations profiled
	kernels    int // kernels those iterations launched
	seqpoints  int
}

// unit runs one pipeline on a cold engine.
func (e *paperEnv) unit(tr *tracer, counts *engineCounts) (paperOutput, paperCounts, error) {
	tr.begin(layerOp)
	defer tr.end()
	eng := seqpoint.NewEngine()
	var src seqpoint.ProfileSource = eng
	if tr != nil {
		src = tracedSource{eng: eng, tr: tr, counts: counts}
	}
	out := paperOutput{
		Runs:       make(map[string][]seqpoint.RunSummary),
		Selections: make(map[string]seqpoint.Selection),
		ErrorPct:   make(map[string][]float64),
		GeomeanPct: make(map[string]float64),
	}
	var pc paperCounts
	var all []float64
	for _, n := range e.networks {
		runs := make([]*seqpoint.Run, len(e.configs))
		for _, ci := range e.order {
			tr.begin(layerTrainer)
			run, err := seqpoint.Simulate(seqpoint.Spec{
				Model: n.model, Train: n.corpus, Batch: paperBatch, Epochs: paperEpochs,
				Schedule: n.schedule, Seed: paperDataSeed, Profiles: src,
			}, e.configs[ci])
			tr.end()
			if err != nil {
				return out, pc, fmt.Errorf("simulate %s on %s: %w", n.name, e.configs[ci].Name, err)
			}
			runs[ci] = run
			pc.iterations += run.Iterations
		}
		recs, err := seqpoint.RecordsFromRun(runs[0], 0)
		if err != nil {
			return out, pc, err
		}
		tr.begin(layerSelect)
		sel, err := seqpoint.Select(recs, seqpoint.Options{})
		tr.end()
		if err != nil {
			return out, pc, fmt.Errorf("select %s: %w", n.name, err)
		}
		pc.seqpoints += len(sel.Points)

		errs := make([]float64, len(e.configs))
		for _, ci := range e.order {
			cfg, run := e.configs[ci], runs[ci]
			sim, err := seqpoint.NewSimulator(cfg)
			if err != nil {
				return out, pc, err
			}
			stat := make(map[int]float64, len(sel.Points))
			for _, p := range sel.Points {
				tr.begin(layerProfiler)
				prof, err := seqpoint.ProfileIteration(sim, n.model, paperBatch, p.SeqLen)
				tr.end()
				if err != nil {
					return out, pc, fmt.Errorf("profile %s SL %d on %s: %w", n.name, p.SeqLen, cfg.Name, err)
				}
				// The profiled SeqPoint must be the very iteration the
				// ground-truth run replayed at that length.
				if want := run.BySL[p.SeqLen].TimeUS; prof.TimeUS != want {
					return out, pc, fmt.Errorf("%s SL %d on %s: profiled %v µs, run replayed %v µs",
						n.name, p.SeqLen, cfg.Name, prof.TimeUS, want)
				}
				stat[p.SeqLen] = prof.TimeUS
				pc.profiled++
				pc.kernels += prof.NumKernels
			}
			tr.begin(layerProject)
			proj, err := seqpoint.ProjectTotal(sel.Points, stat)
			tr.end()
			if err != nil {
				return out, pc, err
			}
			errs[ci] = math.Abs(proj*paperEpochs-run.TrainUS) / run.TrainUS * 100
		}
		out.ErrorPct[n.name] = errs
		out.GeomeanPct[n.name] = geomeanPct(errs)
		out.Selections[n.name] = sel
		for _, run := range runs {
			out.Runs[n.name] = append(out.Runs[n.name], run.Summary())
		}
		all = append(all, errs...)
	}
	out.AllGeomeanPct = geomeanPct(all)
	return out, pc, nil
}

// geomeanPct is the geometric mean of percent errors, each floored at
// 1e-6 so an exact projection keeps the mean defined (the experiments
// package floors the same way).
func geomeanPct(xs []float64) float64 {
	var logSum float64
	for _, x := range xs {
		logSum += math.Log(math.Max(x, 1e-6))
	}
	return math.Exp(logSum / float64(len(xs)))
}

// check applies the paper's accuracy claim to one pipeline's output.
func (o paperOutput) check() error {
	for name, gm := range o.GeomeanPct {
		if gm > paperMaxErrorPct {
			return fmt.Errorf("%s SeqPoint projection error %.3f%% exceeds %.1f%%", name, gm, paperMaxErrorPct)
		}
	}
	return nil
}

// paperWorkload is the paper pipeline as a unit workload. Its outputs
// do not depend on the seed, so every unit is checked against the
// recorded digest directly and the reference check has nothing to add.
type paperWorkload struct {
	seed  int64
	small bool
	env   *paperEnv
	// traced accumulates the layer counts of the traced pass.
	traced paperCounts
	// projErrPct is the last pipeline's projection error geomean.
	projErrPct float64
}

func (w *paperWorkload) nominalUnitS() float64 { return paperUnitS }

func (w *paperWorkload) setup(tr *tracer, _ *engineCounts) error {
	w.env = setupPaper(w.seed, w.small)
	return nil
}

func (w *paperWorkload) unit(tr *tracer, counts *engineCounts) (string, error) {
	out, pc, err := w.env.unit(tr, counts)
	if err != nil {
		return "", err
	}
	if err := out.check(); err != nil {
		return "", err
	}
	digest, err := jsonDigest(out)
	if err != nil {
		return "", err
	}
	if !w.small {
		if err := checkDigest("paper pipeline", digest, recordedDigests.Paper); err != nil {
			return "", err
		}
	}
	if tr != nil {
		w.traced.iterations += pc.iterations
		w.traced.profiled += pc.profiled
		w.traced.kernels += pc.kernels
		w.traced.seqpoints += pc.seqpoints
	}
	w.projErrPct = out.AllGeomeanPct
	return digest, nil
}

func (w *paperWorkload) reference() error { return nil }

func (w *paperWorkload) layers(tr *tracer, counts *engineCounts, n int, m map[string]float64) {
	engineLayers(counts, m)
	pc := w.traced
	prof := tr.stat(layerProfiler)
	m["profiler.us_per_iteration"] = ratio(float64(prof.TotalNS)/1e3, float64(pc.profiled))
	m["gpusim.kernels_per_iteration"] = ratio(float64(pc.kernels), float64(pc.profiled))
	m["gpusim.ns_per_kernel"] = ratio(float64(prof.TotalNS), float64(pc.kernels))
	trainer := tr.stat(layerTrainer)
	m["trainer.iterations"] = float64(pc.iterations)
	m["trainer.self_ms"] = float64(trainer.SelfNS) / 1e6
	m["trainer.self_us_per_iteration"] = ratio(float64(trainer.SelfNS)/1e3, float64(pc.iterations))
	m["core.select_us"] = float64(tr.stat(layerSelect).TotalNS) / 1e3
	m["core.seqpoints"] = float64(pc.seqpoints)
	m["core.project_us"] = float64(tr.stat(layerProject).TotalNS) / 1e3
	m["core.projection_error_pct"] = w.projErrPct
}
