package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/prt"
	"repro/internal/ram"
	"repro/internal/sim"
)

// Workload sizes.  They are part of the benchmark's definition: change
// them and every stored baseline is void.
const (
	workers         = 2     // campaign goroutines of the Plan-based workloads
	cfCells         = 256   // stream-cf: BOM cells, n·(n-1)·12 = 783,360 CF instances
	womCells        = 1024  // session-wom-drop: WOM cells
	womWidth        = 4     // session-wom-drop: bits per word
	womSamples      = 10240 // session-wom-drop: sampled long-distance coupling pairs
	checkpointEvery = 65536 // durable-cf-2part: checkpoint cadence in universe faults
	partitions      = 2     // durable-cf-2part: universe partitions per campaign
)

// workload is one set of inputs the benchmark runs.  A campaign is one
// unit of a workload's work; the harness times campaigns.
type workload struct {
	name string
	// seeded reports whether --seed selects the inputs.  The exhaustive
	// workloads enumerate their whole universe and are seed-free.
	seeded bool
	// textOutput marks outputs compared as rendered text rather than
	// tallies; expectedAs names the expected-output file family.
	textOutput bool
	expectedAs string
	// setup builds the inputs; dir is the run's scratch directory.
	setup func(seed int64, dir string) (*instance, error)
}

// instance is a workload with its inputs built.
type instance struct {
	// presented is the number of faults one campaign presents
	// (universe size × runners).  Zero means it is counted on the
	// warm-up campaign by the telemetry registry.
	presented int64
	// campaign runs one campaign.  tr is nil on untraced campaigns;
	// root is the campaign's root span.
	campaign func(tr *tracer, root int) (result, error)
	// reference recomputes the outputs with the bit-parallel engine,
	// for seeds that have no committed expected outputs.  nil for the
	// seed-free workloads, whose expected outputs are always committed.
	reference func() ([]byte, error)
	// regen computes the outputs for expected/ with the reference
	// engine it names.  nil when the workload shares another's file.
	regen func() ([]byte, string, error)
	// probe times the workload's layers on its own inputs (traced run).
	probe func(tr *tracer, m metrics) error
}

// result is one campaign's outputs plus what the traced run reads.
type result struct {
	canon    []byte // compared byte for byte with the expected outputs
	problem  string // non-empty: interrupted or false positive
	sessions []*coverage.Session
	runWall  time.Duration // Σ Plan.Run wall time
	// durable-cf-2part only.
	load, merge     time.Duration
	checkpointBytes int64
}

var workloads = []*workload{
	{
		name:       "stream-cf",
		expectedAs: "stream-cf",
		setup:      setupStreamCF,
	},
	{
		name:       "session-wom-drop",
		seeded:     true,
		expectedAs: "session-wom-drop",
		setup:      setupSessionWOM,
	},
	{
		name:       "durable-cf-2part",
		expectedAs: "stream-cf",
		setup:      setupDurableCF,
	},
	{
		name:       "paper-tables",
		seeded:     true,
		textOutput: true,
		expectedAs: "paper-tables",
		setup:      setupPaperTables,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runPlan runs one session under a fresh program cache, as a separate
// faultcov process would: every campaign pays record and compile.
func runPlan(tr *tracer, parent int, p coverage.Plan, res *result) *coverage.Session {
	p.Cache = sim.NewProgramCache()
	id := tr.begin("coverage.plan.run", parent)
	t0 := time.Now()
	s := p.Run()
	res.runWall += time.Since(t0)
	tr.end(id)
	res.sessions = append(res.sessions, s)
	return s
}

// sessionResult is the campaign result of a single-session workload.
func sessionResult(tr *tracer, root int, p coverage.Plan) result {
	var res result
	s := runPlan(tr, root, p, &res)
	t, problem := sessionTallies(s)
	res.canon, res.problem = t.canon(), problem
	return res
}

// engineOutputs runs the plan on another engine and returns its
// canonical tallies.
func engineOutputs(p coverage.Plan, e coverage.Engine) ([]byte, error) {
	p.Engine = e
	t, problem := sessionTallies(p.Run())
	if problem != "" {
		return nil, fmt.Errorf("%s engine run: %s", e, problem)
	}
	return t.canon(), nil
}

// cfPlan is the stream-cf session: the exhaustive ordered-pair coupling
// stream on a 256-cell BOM under PRT-3 and March C-, compiled engine,
// default chunk, SinkAuto (unordered: nothing needs ordered delivery).
func cfPlan() coverage.Plan {
	gen := prt.PaperBOMConfig().Gen
	return coverage.Plan{
		Name: "stream-cf",
		Runners: []coverage.Runner{
			coverage.PRTRunner(prt.StandardScheme3(gen)),
			coverage.MarchRunner(march.MarchCMinus(), nil),
		},
		Stream:  &fault.Stream{Name: "cf-exhaustive", Source: fault.FullCouplingSource(cfCells)},
		Memory:  func() ram.Memory { return ram.NewBOM(cfCells) },
		Workers: workers,
		Engine:  coverage.EngineCompiled,
	}
}

func cfPresented(p coverage.Plan) int64 {
	n, _ := p.Stream.Source.Count()
	return int64(n) * int64(len(p.Runners))
}

func setupStreamCF(int64, string) (*instance, error) {
	p := cfPlan()
	return &instance{
		presented: cfPresented(p),
		campaign: func(tr *tracer, root int) (result, error) {
			return sessionResult(tr, root, p), nil
		},
		regen: func() ([]byte, string, error) {
			b, err := engineOutputs(p, coverage.EngineOracle)
			return b, "oracle", err
		},
		probe: func(tr *tracer, m metrics) error { return probeStream(tr, p, m) },
	}, nil
}

// setupDurableCF builds the stream-cf plan plus checkpoint paths in the
// run's own directory (set-up does no I/O).  A campaign runs partition
// 1/2 and 2/2 back to back, each from scratch with its own checkpoint
// file, then loads both files and merges them.  The merged tallies must
// equal stream-cf's.
func setupDurableCF(_ int64, dir string) (*instance, error) {
	p := cfPlan()
	paths := make([]string, partitions)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("part-%d.fckp", i+1))
	}
	campaign := func(tr *tracer, root int) (result, error) {
		var res result
		for i, path := range paths {
			// A left-over file would not be resumed (Resume is nil), but
			// removing it keeps every campaign's I/O identical.
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return res, err
			}
			q := p
			q.Checkpoint = &coverage.CheckpointConfig{Path: path, Every: checkpointEvery, Label: "perfbench durable-cf-2part"}
			q.PartitionIndex, q.PartitionCount = i+1, partitions
			if _, problem := sessionTallies(runPlan(tr, root, q, &res)); problem != "" {
				res.problem = fmt.Sprintf("partition %d/%d: %s", i+1, partitions, problem)
			}
		}
		id := tr.begin("checkpoint.load", root)
		t0 := time.Now()
		states := make([]*checkpoint.State, len(paths))
		for i, path := range paths {
			st, err := checkpoint.Load(path)
			if err != nil {
				return res, err
			}
			states[i] = st
		}
		res.load = time.Since(t0)
		tr.end(id)
		id = tr.begin("checkpoint.merge", root)
		t0 = time.Now()
		merged, err := checkpoint.Merge(states)
		res.merge = time.Since(t0)
		tr.end(id)
		if err != nil {
			return res, err
		}
		for _, path := range paths {
			fi, err := os.Stat(path)
			if err != nil {
				return res, err
			}
			res.checkpointBytes += fi.Size()
		}
		res.canon = stateTallies(merged).canon()
		return res, nil
	}
	return &instance{
		presented: cfPresented(p),
		campaign:  campaign,
		probe:     func(tr *tracer, m metrics) error { return probeStream(tr, p, m) },
	}, nil
}

// womRunners is the E6 runner set at the paper's 4-bit word width plus
// the compressed-signature BIST runner.
func womRunners() []coverage.Runner {
	bgs := march.DataBackgrounds(womWidth)
	gen := prt.PaperWOMConfig().Gen
	return []coverage.Runner{
		coverage.MarchRunner(march.MATSPlus(), bgs),
		coverage.MarchRunner(march.MarchX(), bgs),
		coverage.MarchRunner(march.MarchY(), bgs),
		coverage.MarchRunner(march.MarchCMinus(), bgs),
		coverage.MarchRunner(march.MarchA(), bgs),
		coverage.MarchRunner(march.MarchB(), bgs),
		coverage.PRTRunner(prt.StandardScheme3(gen).SignatureOnly()),
		coverage.PRTRunner(prt.StandardScheme3(gen)),
		coverage.PRTRunner(prt.StandardScheme4(gen)),
		coverage.PRTRunner(prt.ExtendedScheme(gen, 2)),
		coverage.BISTRunner(prt.PaperWOMScheme3(), 0),
	}
}

func setupSessionWOM(seed int64, _ string) (*instance, error) {
	u := fault.StandardUniverse(womCells, womWidth, womSamples, seed)
	p := coverage.Plan{
		Name:     "session-wom-drop",
		Runners:  womRunners(),
		Universe: u,
		Memory:   func() ram.Memory { return ram.NewWOM(womCells, womWidth) },
		Workers:  workers,
		Engine:   coverage.EngineCompiled,
		Drop:     true,
		Order:    coverage.OrderCheapestFirst,
	}
	return &instance{
		presented: int64(len(u.Faults)) * int64(len(p.Runners)),
		campaign: func(tr *tracer, root int) (result, error) {
			return sessionResult(tr, root, p), nil
		},
		reference: func() ([]byte, error) { return engineOutputs(p, coverage.EngineBitParallel) },
		regen: func() ([]byte, string, error) {
			b, err := engineOutputs(p, coverage.EngineOracle)
			return b, "oracle", err
		},
		probe: func(tr *tracer, m metrics) error { return probeMaterialized(tr, p, m) },
	}, nil
}

// setupPaperTables installs the seed as the experiments' sampling seed
// (0 keeps each experiment's own default) and the process defaults the
// catalogue runs under.  The experiments build their own universes and
// runners inside each campaign.
func setupPaperTables(seed int64, _ string) (*instance, error) {
	repro.SetSampleSeed(seed)
	coverage.SetDefaultEngine(coverage.EngineCompiled)
	inst := &instance{
		campaign: func(tr *tracer, root int) (result, error) {
			var res result
			if tr != nil {
				// Traced campaigns collect the multi-runner sessions the
				// catalogue runs, for their engine reports.
				coverage.SetSessionObserver(func(_ *coverage.Plan, s *coverage.Session) {
					res.sessions = append(res.sessions, s)
				})
				defer coverage.SetSessionObserver(nil)
			}
			// Start from an empty process-wide program cache, as a fresh
			// faultcov process does: every pass pays record and compile
			// once per distinct trace.
			*coverage.SharedProgramCache() = sim.ProgramCache{}
			res.canon = renderTables(tr, root)
			return res, nil
		},
		reference: func() ([]byte, error) {
			return withEngine(coverage.EngineBitParallel, func() []byte { return renderTables(nil, 0) }), nil
		},
		regen: func() ([]byte, string, error) {
			return withEngine(coverage.EngineOracle, func() []byte { return renderTables(nil, 0) }), "oracle", nil
		},
	}
	inst.probe = func(tr *tracer, m metrics) error { return probePaperTables(tr, inst, m) }
	return inst, nil
}

// renderTables runs AllExperiments and renders every table to a buffer
// the way faultcov prints them.
func renderTables(tr *tracer, root int) []byte {
	id := tr.begin("repro.all_experiments", root)
	tables := repro.AllExperiments()
	tr.end(id)
	id = tr.begin("report.render", root)
	var b bytes.Buffer
	for _, t := range tables {
		t.Render(&b)
		b.WriteByte('\n')
	}
	tr.end(id)
	return b.Bytes()
}

func withEngine(e coverage.Engine, f func() []byte) []byte {
	prev := coverage.DefaultEngine()
	coverage.SetDefaultEngine(e)
	defer coverage.SetDefaultEngine(prev)
	return f()
}
