// Command faultcov regenerates the paper's evaluation: every figure
// and quantitative claim as a table (the same output as
// `go test -bench=.` produces, without the timing).
//
// Usage:
//
//	faultcov                 # all experiments (compiled engine)
//	faultcov -exp e6         # one experiment; -exp '?' lists the ids
//	faultcov -format csv     # CSV output (-csv is the legacy alias)
//	faultcov -format json    # JSON Lines: one object per table row
//	faultcov -engine oracle  # per-fault reference engine
//	faultcov -workers 4      # fixed campaign worker count
//	faultcov -collapse=false # simulate materialized universes uncollapsed
//	faultcov -drop           # cross-test fault dropping in sessions
//	faultcov -session        # report survivors per session stage
//	faultcov -seed 99        # reseed the sampled coupling-pair draws
//	faultcov -chunk 65536    # faults per pull of streaming campaigns
//	faultcov -exp e17 -exhaustive-cf  # multi-million-fault exhaustive CF run
//	faultcov -progress       # live faults/s, ETA and survivors on stderr
//	faultcov -debug-addr :6060  # /metrics + /debug/pprof while running
//	faultcov -exp e17 -checkpoint run.fckp            # durable campaign
//	faultcov -exp e17 -checkpoint run.fckp -resume    # continue after a kill
//	faultcov -exp e17 -partition 2/3 -checkpoint p2.fckp  # one universe shard
//	faultcov -merge p1.fckp p2.fckp p3.fckp           # combine shard results
//
// -partition i/N restricts every streaming campaign session to the
// i-th of N near-equal index ranges of its fault universe, so N
// faultcov processes (or machines) can split one campaign.  It
// requires -checkpoint: the per-partition checkpoint file is the
// partition's output artifact.  -merge validates that the named
// checkpoint files are completed partitions of the same campaign
// (identical spec hash, seed and memory geometry; ranges tiling the
// universe with no gap or overlap), ORs their detection bitmaps, sums
// their tallies, and prints the combined result tables — byte-
// identical to the tables -merge prints for a single unpartitioned
// checkpoint of the same campaign.  With -checkpoint the merged state
// is also written to that file.
//
// -checkpoint makes the streaming campaign sessions durable: the
// session state (per-stage tallies, the cumulative detection bitmap
// and a high-water mark) is written atomically to the file every
// -checkpoint-every universe faults, at stage boundaries, on SIGINT/
// SIGTERM, and at completion.  A signal cancels the campaign
// cooperatively — in-flight work drains within one chunk, the final
// checkpoint is flushed, partial tables print, and faultcov exits with
// status 3.  -resume loads the checkpoint and fast-forwards the
// matching session past the work already done; a checkpoint written by
// a different campaign (spec, memory geometry or seed mismatch) or a
// corrupt file is refused up front.
//
// -progress attaches the telemetry registry and streams two kinds of
// stderr lines: periodic `# progress` lines during a stage (faults
// done, faults/s, ETA, survivors when known) and one `# stage` line
// after each stage (engine, elapsed, throughput, collapse ratio, and
// each worker's share of wall time spent blocked on the serialized
// streaming sink).  -debug-addr serves the same counters as JSON on
// /metrics plus the standard net/http/pprof profiles for the duration
// of the run; both flags cost nothing when absent (the engines check
// one nil pointer per batch).
//
// The experiment catalogue is defined once in this file (the order
// slice below) and the -exp help text is generated from it, so the two
// cannot drift apart as experiments are added.
//
// The -engine flag selects the campaign execution strategy: "compiled"
// (default) lowers the recorded test trace into a flat instruction
// program replayed allocation-free over per-worker arenas with
// structural fault collapsing of materialized universes (streamed ones
// are never collapsed); "bitpar" is the per-batch trace
// interpreter; "oracle" re-runs the full algorithm once per injected
// fault.  All three produce identical tables — including the
// signature-compressed (MISR/BIST) rows, whose aliasing the compiled
// engine's observers replay exactly; the oracle is the reference the
// replay engines are property-tested against.
//
// Experiments that compare several algorithms over one universe run as
// campaign sessions (coverage.Plan).  -drop enables cross-test fault
// dropping inside those sessions: once a fault is detected by one
// algorithm it is dropped from the rest, so later rows cover only the
// faults the preceding algorithms missed (the per-algorithm rows are
// then conditional on session order; defaults keep every row an
// independent full-universe campaign).  -session prints one summary
// line per session with the survivor count after each stage.
//
// E17 runs over streaming fault universes (fault.Source): the faults
// are generated in -chunk sized pulls instead of being materialized,
// so resident fault storage is O(chunk × workers) however large the
// universe.  -exhaustive-cf switches E17 to its full-scale sizes,
// where the exhaustive coupling universe exceeds two million fault
// instances — feasible only via the streaming path.
//
// -seed replaces the per-experiment default seeds of every sampled
// coupling-pair draw (E5, E6, E10, E16 and E17's sampled baseline);
// the effective seed is printed in the run header so sampled tables
// are reproducible on demand.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/coverage"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// experiments is the catalogue, in presentation order.  The -exp flag
// help and the unknown-id error are both generated from it.
type experiment struct {
	id    string
	build func() *report.Table
}

func catalogue() []experiment {
	return []experiment{
		{"fig1a", func() *report.Table { return repro.ExperimentFig1a(16) }},
		{"fig1b", func() *report.Table { return repro.ExperimentFig1b(257) }},
		{"fig2", func() *report.Table { return repro.ExperimentFig2([]int{64, 256, 1024}) }},
		{"e4", func() *report.Table { return repro.ExperimentSingleCell(48) }},
		{"e5", func() *report.Table { return repro.ExperimentCoupling(48) }},
		{"e6", func() *report.Table { return repro.ExperimentPRTvsMarch(48, 4) }},
		{"e7", repro.ExperimentBISTOverhead},
		{"e8", repro.ExperimentMarkov},
		{"e9", func() *report.Table { return repro.ExperimentIntraWord(32, 4) }},
		{"e10", func() *report.Table { return repro.ExperimentQualityFactors(48) }},
		{"e11", repro.ExperimentMultiplierSynthesis},
		{"e12", func() *report.Table { return repro.ExperimentNPSF(64, 8) }},
		{"e13", func() *report.Table { return repro.ExperimentRetention(48) }},
		{"e14", func() *report.Table { return repro.ExperimentRingMode([]int{64, 255, 257}) }},
		{"e15", func() *report.Table { return repro.ExperimentMISR(64) }},
		{"e16", func() *report.Table {
			return repro.ExperimentMISRAliasing([]int{64, 256}, []int{1, 2, 4, 8, 16})
		}},
		{"e17", func() *report.Table {
			// -exhaustive-cf scales the exhaustive coupling universes into
			// the millions (n=512 → 3.1M instances) — streaming only.
			if exhaustiveCFSizes {
				return repro.ExperimentExhaustiveCoupling([]int{64, 128, 256, 512}, 64)
			}
			return repro.ExperimentExhaustiveCoupling([]int{48, 96}, 64)
		}},
	}
}

// exhaustiveCFSizes is set by the -exhaustive-cf flag before the
// catalogue's build closures run.
var exhaustiveCFSizes bool

func main() {
	exps := catalogue()
	order := make([]string, len(exps))
	byID := make(map[string]func() *report.Table, len(exps))
	for i, e := range exps {
		order[i] = e.id
		byID[e.id] = e.build
	}
	ids := strings.Join(order, ", ")

	exp := flag.String("exp", "all", fmt.Sprintf("experiment id: %s or all", ids))
	format := flag.String("format", "text", "output format: text (aligned), csv, or json (JSON Lines, one object per row)")
	csv := flag.Bool("csv", false, "emit CSV (legacy alias for -format csv)")
	engine := flag.String("engine", "compiled", "campaign engine: compiled (arena replay), bitpar (per-batch interpreter) or oracle (one run per fault)")
	workers := flag.Int("workers", 0, "campaign worker goroutines (0 = GOMAXPROCS)")
	collapse := flag.Bool("collapse", true, "collapse equivalent faults of materialized universes before simulation (compiled engine; streams are never collapsed)")
	drop := flag.Bool("drop", false, "cross-test fault dropping: later runners of a comparison session simulate only the faults earlier runners missed (their rows then cover survivors only)")
	session := flag.Bool("session", false, "print one summary line per campaign session with survivors after each stage")
	seed := flag.Int64("seed", 0, "seed for the sampled coupling-pair draws (0 = per-experiment defaults), printed in the run header")
	chunk := flag.Int("chunk", 0, "faults per pull of streaming campaigns, at least 1 (omit the flag for the engine default)")
	exhaustiveCF := flag.Bool("exhaustive-cf", false, "run E17 over the full-scale exhaustive coupling universes (millions of fault instances, streaming engine only)")
	progress := flag.Bool("progress", false, "stream live campaign progress (faults/s, ETA, survivors) and per-stage engine reports to stderr")
	debugAddr := flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. :6060) for the duration of the run")
	checkpointPath := flag.String("checkpoint", "", "write streaming-campaign checkpoints atomically to this file (enables durable campaigns)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint cadence in universe faults (0 = the package default; requires -checkpoint)")
	resume := flag.Bool("resume", false, "resume the campaign from the -checkpoint file if it exists")
	partitionFlag := flag.String("partition", "", "run only one index-range shard of each streaming campaign, format i/N (1-based, N >= 2; requires -checkpoint; combine the shard checkpoints with -merge)")
	merge := flag.Bool("merge", false, "merge completed partition checkpoint files (the positional arguments) and print the combined result tables; -checkpoint writes the merged state to that file")
	flag.Parse()
	exhaustiveCFSizes = *exhaustiveCF

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "faultcov: "+format+"\n", args...)
		os.Exit(2)
	}
	// Up-front flag validation: a bad combination must refuse before any
	// campaign runs, not fail (or silently misbehave) hours in.
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["chunk"] && *chunk < 1 {
		fail("-chunk must be at least 1 (got %d)", *chunk)
	}
	if *workers < 0 {
		fail("-workers must be non-negative (got %d)", *workers)
	}
	if explicit["checkpoint-every"] && *checkpointPath == "" {
		fail("-checkpoint-every requires -checkpoint")
	}
	if *checkpointEvery < 0 {
		fail("-checkpoint-every must be non-negative (got %d)", *checkpointEvery)
	}
	if *resume && *checkpointPath == "" {
		fail("-resume requires -checkpoint")
	}
	partIdx, partCnt := 0, 0
	if *partitionFlag != "" {
		if *merge {
			fail("-partition and -merge are mutually exclusive (run the partitions first, then merge their checkpoints)")
		}
		var ok bool
		partIdx, partCnt, ok = parsePartition(*partitionFlag)
		if !ok {
			fail("-partition wants i/N with integers 1 <= i <= N and N >= 2 (got %q); e.g. -partition 2/3", *partitionFlag)
		}
		if *checkpointPath == "" {
			fail("-partition requires -checkpoint: the per-partition checkpoint file is the shard's output (combine them with faultcov -merge)")
		}
	}
	if *merge && *resume {
		fail("-resume is meaningless with -merge (with -merge, -checkpoint names the output file)")
	}
	eng, err := coverage.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultcov: %v\n", err)
		os.Exit(2)
	}
	if *csv {
		*format = "csv"
	}
	switch *format {
	case "text", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "faultcov: unknown format %q (want text, csv or json)\n", *format)
		os.Exit(2)
	}
	if *merge {
		mergeCheckpoints(flag.Args(), *checkpointPath, *format, fail)
		return
	}
	coverage.SetDefaultEngine(eng)
	coverage.SetDefaultWorkers(*workers)
	coverage.SetCollapse(*collapse)
	coverage.SetDefaultDrop(*drop)
	coverage.SetDefaultChunk(*chunk)
	if partCnt > 0 {
		coverage.SetDefaultPartition(partIdx, partCnt)
	}
	repro.SetSampleSeed(*seed)

	// SIGINT/SIGTERM cancel the campaign context: in-flight stages drain
	// within a chunk, durable sessions flush a final checkpoint, and the
	// partial tables still print before the exit-3 report below.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	coverage.SetDefaultContext(ctx)

	resumeOffered := false
	if *checkpointPath != "" {
		coverage.SetDefaultCheckpoint(&coverage.CheckpointConfig{
			Path:  *checkpointPath,
			Every: *checkpointEvery,
			Label: fmt.Sprintf("faultcov -exp %s -engine %s -drop=%v -seed %d", strings.ToLower(*exp), eng, *drop, *seed),
			Seed:  *seed,
		})
		if *resume {
			st, err := checkpoint.Load(*checkpointPath)
			switch {
			case err == nil:
				// The full identity (spec hash, geometry, stage order) is
				// validated by the session that consumes the offer; the seed
				// is checkable right here, so refuse the obvious mismatch
				// before any simulation starts.
				if st.Seed != *seed {
					fail("-resume: checkpoint %q was written with seed %d, this run has seed %d", *checkpointPath, st.Seed, *seed)
				}
				coverage.SetDefaultResume(st)
				resumeOffered = true
				fmt.Fprintf(os.Stderr, "# resuming from %s (%q)\n", *checkpointPath, st.Label)
			case errors.Is(err, os.ErrNotExist):
				fmt.Fprintf(os.Stderr, "# no checkpoint at %s yet; starting fresh\n", *checkpointPath)
			default:
				fail("-resume: %v", err)
			}
		}
	}
	if *progress || *debugAddr != "" {
		reg := telemetry.NewRegistry()
		if *progress {
			reg.OnProgress(time.Second, func(p telemetry.Progress) {
				line := fmt.Sprintf("# progress %s: %d", p.Stage, p.Done)
				if p.Total > 0 {
					line += fmt.Sprintf("/%d (%.1f%%)", p.Total, 100*float64(p.Done)/float64(p.Total))
				}
				line += fmt.Sprintf(" faults, %s faults/s", coverage.FormatRate(p.FaultsPerSec))
				if p.ETA >= 0 {
					line += fmt.Sprintf(", ETA %s", p.ETA.Round(time.Second))
				}
				if p.Survivors >= 0 {
					line += fmt.Sprintf(", survivors %d", p.Survivors)
				}
				fmt.Fprintln(os.Stderr, line)
			})
			reg.OnStage(func(rep telemetry.StageReport) {
				line := fmt.Sprintf("# stage %s/%s [%s]: %d faults in %s, %s faults/s",
					rep.Universe, rep.Stage, rep.Engine, rep.Entered,
					coverage.FormatDuration(rep.Elapsed), coverage.FormatRate(rep.FaultsPerSec))
				if rep.CollapseRatio > 0 && rep.CollapseRatio < 1 {
					line += fmt.Sprintf(", collapse %.2f", rep.CollapseRatio)
				}
				if rep.CacheHit {
					line += ", cached program"
				}
				if len(rep.SinkWait) > 0 && rep.Elapsed > 0 {
					shares := make([]string, len(rep.SinkWait))
					for i, w := range rep.SinkWait {
						shares[i] = fmt.Sprintf("%.0f%%", 100*w.Seconds()/rep.Elapsed.Seconds())
					}
					line += fmt.Sprintf(", sink-wait/worker [%s]", strings.Join(shares, " "))
				}
				fmt.Fprintln(os.Stderr, line)
			})
		}
		telemetry.SetActive(reg)
		if *debugAddr != "" {
			addr, err := telemetry.ServeDebug(*debugAddr, reg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "faultcov: debug endpoint: %v\n", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "# debug endpoint on http://%s (/metrics, /debug/pprof)\n", addr)
		}
	}
	if *session {
		// Session lines go to stdout only in text mode; the csv/json
		// streams stay machine-readable, so the report moves to stderr.
		sessionOut := os.Stdout
		if *format != "text" {
			sessionOut = os.Stderr
		}
		coverage.SetSessionObserver(func(p *coverage.Plan, s *coverage.Session) {
			fmt.Fprintf(sessionOut, "# session %s [%s]: %s — cumulative %s\n",
				p.UniverseName(), eng, s.FormatStages(),
				report.Percent(s.Cumulative.Detected, s.Cumulative.Total))
		})
	}

	effWorkers := *workers
	if effWorkers <= 0 {
		effWorkers = runtime.GOMAXPROCS(0)
	}
	seedLabel := "default"
	if *seed != 0 {
		seedLabel = fmt.Sprintf("%d", *seed)
	}
	if *format == "text" {
		partLabel := ""
		if partCnt > 0 {
			partLabel = fmt.Sprintf(" partition=%d/%d", partIdx, partCnt)
		}
		fmt.Printf("# engine=%s workers=%d lanes=auto collapse=%v drop=%v seed=%s chunk=%d%s\n\n",
			eng, effWorkers, *collapse, *drop, seedLabel, coverage.DefaultChunk(), partLabel)
	}

	id := strings.ToLower(*exp)
	var tables []*report.Table
	if id == "all" {
		for _, k := range order {
			tables = append(tables, byID[k]())
		}
	} else {
		f, ok := byID[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "faultcov: unknown experiment %q (choose from %s)\n", *exp, ids)
			os.Exit(2)
		}
		tables = append(tables, f())
	}
	for _, t := range tables {
		switch *format {
		case "csv":
			t.CSV(os.Stdout)
		case "json":
			t.JSONL(os.Stdout)
		default:
			t.Render(os.Stdout)
		}
		if *format != "json" {
			fmt.Println()
		}
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "# interrupted: tables above are partial; rerun with -checkpoint ... -resume to continue")
		os.Exit(3)
	}
	if resumeOffered && coverage.DefaultResumePending() {
		fmt.Fprintf(os.Stderr, "faultcov: checkpoint %s matched no campaign session of this run (wrong -exp or flags?)\n", *checkpointPath)
		os.Exit(1)
	}
}

// parsePartition parses the -partition flag's i/N shard selector.
// Only 1 <= i <= N with N >= 2 is a valid selector — N=1 is just an
// unpartitioned run, so it is refused rather than silently ignored.
func parsePartition(s string) (i, n int, ok bool) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return 0, 0, false
	}
	i, err1 := strconv.Atoi(s[:slash])
	n, err2 := strconv.Atoi(s[slash+1:])
	if err1 != nil || err2 != nil || n < 2 || i < 1 || i > n {
		return 0, 0, false
	}
	return i, n, true
}

// mergeCheckpoints is the -merge mode: load the named partition
// checkpoint files, combine them (checkpoint.Merge validates that they
// are completed shards of one campaign tiling its universe), print the
// combined result tables in the selected format, and — when outPath is
// set — write the merged state as a full-universe checkpoint.  The
// tables are rendered from the merged State alone, so merging N
// partition files and "merging" the single checkpoint of an
// unpartitioned run of the same campaign print byte-identical output.
func mergeCheckpoints(paths []string, outPath, format string, fail func(string, ...any)) {
	if len(paths) == 0 {
		fail("-merge needs the partition checkpoint files as arguments, e.g. faultcov -merge part1.fckp part2.fckp part3.fckp")
	}
	states := make([]*checkpoint.State, len(paths))
	for i, p := range paths {
		st, err := checkpoint.Load(p)
		if err != nil {
			fail("-merge: %s: %v", p, err)
		}
		states[i] = st
	}
	merged, err := checkpoint.Merge(states)
	if err != nil {
		fail("-merge: %v", err)
	}
	if outPath != "" {
		if err := checkpoint.WriteAtomic(outPath, merged); err != nil {
			fail("-merge: writing %s: %v", outPath, err)
		}
		fmt.Fprintf(os.Stderr, "# merged %d checkpoint(s) into %s\n", len(paths), outPath)
	}
	for _, t := range mergeTables(merged) {
		switch format {
		case "csv":
			t.CSV(os.Stdout)
		case "json":
			t.JSONL(os.Stdout)
		default:
			t.Render(os.Stdout)
		}
		if format != "json" {
			fmt.Println()
		}
	}
}

// mergeTables renders a merged State's result tables: the per-stage
// campaign outcome and the per-fault-class universe tally.  Everything
// comes from the State, so the output is deterministic.
func mergeTables(s *checkpoint.State) []*report.Table {
	stages := report.New(
		fmt.Sprintf("Merged campaign: %d universe faults, %d stage(s) [%s]", s.UniverseN, len(s.Done), s.Label),
		"stage", "entered", "detected", "coverage", "survivors")
	for _, r := range s.Done {
		stages.AddRow(r.Runner, r.Entered, r.Detected,
			report.Percent(int(r.Detected), int(r.Entered)), r.Survivors)
	}
	classes := report.New("Merged universe by fault class",
		"class", "total", "detected", "coverage")
	for _, ct := range s.Universe {
		classes.AddRow(fault.Class(ct.Class).String(), ct.Total, ct.Detected,
			report.Percent(int(ct.Detected), int(ct.Total)))
	}
	return []*report.Table{stages, classes}
}
