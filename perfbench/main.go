// Command perfbench is the repository's benchmark.  It runs one
// workload's fault-coverage campaigns in this process through the
// public API, checks every campaign's outputs against the expected
// outputs, and prints each metric with its unit.  The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {"faults_per_s": {"value": 1.9e6, "unit": "1/s"}, …}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones from a separate traced run.  Run it from the repository root
// through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload stream-cf --seed 1 --seconds 10 --trace 0
//
// README.md in this directory defines every workload and metric.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command-line flags.
type options struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	runDir    string // scratch directory of this run, removed at exit
	traceDir  string
	gitCommit string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed (seed-free workloads ignore it)")
	seconds := fs.Float64("seconds", 10, "seconds of campaigns to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workDir := fs.String("work-dir", ".bench_build/perfbench", "directory for checkpoint files and the span trace")
	gitCommit := fs.String("git-commit", "", "commit the sources were checked out at, when known")
	regen := fs.String("regen", "", "write the workload's expected outputs for --seed into this directory and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	switch {
	case w == nil:
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %g\n", *seconds)
		return 2
	}
	o := options{
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		traceDir:  *workDir,
		gitCommit: *gitCommit,
	}
	err := os.MkdirAll(*workDir, 0o755)
	if err == nil {
		o.runDir, err = os.MkdirTemp(*workDir, w.name+"-")
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(o.runDir)
	switch {
	case *regen != "":
		err = regenerate(w, o, *regen, stdout)
	case o.trace:
		err = tracedRun(w, o, stdout)
	default:
		err = untracedRun(w, o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metricSpec is one reported metric.
type metricSpec struct{ name, unit string }

// endToEnd are the untraced run's metrics.  failed_frac is reported
// through the result's attempted/failed counts: it is zero on a correct
// build, and the metrics here are never zero.  campaign_s.tail is
// printed on a comment line only: on the benchmark host its run-to-run
// spread reaches the widest bound a metric may have (README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"campaign_s.p50", "s"},
	{"faults_per_s", "1/s"},
	{"cpu_s_per_mfault", "s"},
	{"allocs_per_fault", "count"},
	{"alloc_bytes_per_fault", "B"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the traced run's metrics.  A layer the workload does not
// run reads 0 (listed on the "# not run" line).
var perLayer = []metricSpec{
	{"fault.source.ns_per_fault", "ns"},
	{"fault.source.allocs_per_fault", "count"},
	{"fault.collapse.ns_per_fault", "ns"},
	{"fault.collapse.ratio", "ratio"},
	{"sim.record_s", "s"},
	{"sim.compile_s", "s"},
	{"sim.arena.new_s", "s"},
	{"sim.program_ops", "count"},
	{"sim.fused_ops", "count"},
	{"sim.trimmed_ops", "count"},
	{"sim.kernel.ns_per_fault", "ns"},
	{"sim.driver.kernel_share", "ratio"},
	{"sim.driver.source_wait_share", "ratio"},
	{"sim.driver.sink_wait_share", "ratio"},
	{"coverage.prepare_s", "s"},
	{"coverage.detect_s", "s"},
	{"coverage.merge_s", "s"},
	{"coverage.drop.simulated_frac", "ratio"},
	{"coverage.cache.hit_frac", "ratio"},
	{"checkpoint.writes", "count"},
	{"checkpoint.write_s", "s"},
	{"checkpoint.load_s", "s"},
	{"checkpoint.merge_s", "s"},
	{"checkpoint.bytes", "B"},
	{"prt.iteration_ns_per_cell", "ns"},
	{"go.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// provenance records where and how a result was measured.
type provenance struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	SeedUsed     bool    `json:"seed_used"`
	Traced       bool    `json:"traced"`
	RunSeconds   float64 `json:"run_seconds"`
	Workers      int     `json:"workers"`
	CPUModel     string  `json:"cpu_model"`
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	GitCommit    string  `json:"git_commit"`
	SourceSHA256 string  `json:"source_sha256"`
	ExpectedFrom string  `json:"expected_from,omitempty"`
	// Campaigns is the number of timed campaigns, the sample count
	// behind campaign_s.p50.
	Campaigns    int `json:"campaigns"`
	SetupSamples int `json:"setup_samples,omitempty"`
	// HostStealShare is the share of the machine's CPU time the
	// hypervisor gave to other guests during the timed campaigns.
	HostStealShare float64 `json:"host_steal_share"`
}

func newProvenance(w *workload, o options) provenance {
	commit := o.gitCommit
	if commit == "" {
		commit = "unknown (not built from a git checkout)"
	}
	return provenance{
		Workload:     w.name,
		Seed:         o.seed,
		SeedUsed:     w.seeded,
		Traced:       o.trace,
		RunSeconds:   o.seconds.Seconds(),
		Workers:      workers,
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitCommit:    commit,
		SourceSHA256: sourceDigest("."),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the Go sources the benchmark was built
// from (every .go, go.mod and go.sum file outside hidden directories
// and third_party/), so results of checkouts without git metadata can
// still be told apart.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "third_party") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// campaignCheck is one campaign's verdict material.
type campaignCheck struct {
	sum     [32]byte
	problem string
}

func checkOf(res result, err error) campaignCheck {
	switch {
	case err != nil:
		return campaignCheck{problem: err.Error()}
	case res.problem != "":
		return campaignCheck{problem: res.problem}
	}
	return campaignCheck{sum: sha256.Sum256(res.canon)}
}

// runCampaign runs one campaign, turning a panic into an error so a
// broken campaign counts as failed instead of ending the run.
func runCampaign(inst *instance, tr *tracer, root int) (res result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("campaign panicked: %v", v)
		}
	}()
	return inst.campaign(tr, root)
}

// warmUp runs the discarded first campaign.  When the workload has no
// fixed presented-fault count it is counted here, by the telemetry
// registry's presented-fault counter (Σ Result.Total over every
// campaign the pass runs).
func warmUp(inst *instance) campaignCheck {
	var reg *telemetry.Registry
	if inst.presented == 0 {
		reg = telemetry.NewRegistry()
		telemetry.SetActive(reg)
	}
	res, err := runCampaign(inst, nil, 0)
	if reg != nil {
		telemetry.SetActive(nil)
		inst.presented = int64(reg.Snapshot().Faults)
	}
	return checkOf(res, err)
}

// verify compares every campaign with the expected outputs: the
// committed ones for this seed, or else a reference recomputed with
// the bit-parallel engine.  It returns the failed-campaign count, the
// first failure, and where the expected outputs came from.
func verify(w *workload, o options, inst *instance, checks []campaignCheck) (failed int, first, from string, err error) {
	want, err := loadExpected(w, o.seed)
	if err != nil {
		return 0, "", "", err
	}
	from = "expected/" + expectedName(w, o.seed)
	if want == nil {
		if inst.reference == nil {
			return 0, "", "", fmt.Errorf("no expected outputs committed as %s", from)
		}
		if want, err = inst.reference(); err != nil {
			return 0, "", "", fmt.Errorf("reference run: %w", err)
		}
		from = "bit-parallel engine reference, recomputed for this seed"
	}
	sum := sha256.Sum256(want)
	for i, c := range checks {
		msg := c.problem
		if msg == "" && c.sum != sum {
			msg = "outputs differ from " + from
		}
		if msg != "" {
			failed++
			if first == "" {
				first = fmt.Sprintf("campaign %d: %s", i, msg)
			}
		}
	}
	return failed, first, from, nil
}

// setupTimer measures the workload's set-up: it builds the campaign
// instance once, then takes one timed sample of further builds before
// every timed campaign, so set-up samples spread over the run like the
// campaign samples.  A build shorter than setupBatch is timed in
// batches so each sample spans at least setupBatch.  Sample builds are
// discarded.
type setupTimer struct {
	w       *workload
	o       options
	batch   int
	samples []float64
}

const setupBatch = 2 * time.Millisecond

// newSetupTimer builds the campaign instance; that first (cold) build
// calibrates the batch size and is not a sample.
func newSetupTimer(w *workload, o options) (*setupTimer, *instance, error) {
	t0 := time.Now()
	inst, err := w.setup(o.seed, o.runDir)
	if err != nil {
		return nil, nil, err
	}
	st := &setupTimer{w: w, o: o, batch: 1}
	if d := time.Since(t0); d < setupBatch {
		st.batch = int(setupBatch/max(d, time.Microsecond)) + 1
	}
	return st, inst, nil
}

func (st *setupTimer) sample() error {
	t0 := time.Now()
	for i := 0; i < st.batch; i++ {
		if _, err := st.w.setup(st.o.seed, st.o.runDir); err != nil {
			return err
		}
	}
	st.samples = append(st.samples, time.Since(t0).Seconds()/float64(st.batch))
	return nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// rssSampler polls the process's resident set size (/proc/self/statm)
// while a campaign runs; the peak sample is the campaign's peak RSS.
// The file is read into a reused buffer, so sampling does not allocate.
type rssSampler struct {
	f    *os.File
	page float64
}

const rssEvery = 5 * time.Millisecond

func newRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	return &rssSampler{f: f, page: float64(os.Getpagesize())}, nil
}

// rssMB reads the current resident set size.
func (r *rssSampler) rssMB(buf []byte) float64 {
	n, _ := r.f.ReadAt(buf, 0) // io.EOF at the end of the short file
	// statm: size resident shared text lib data dt, in pages.
	fields := 0
	var pages float64
	for _, c := range buf[:n] {
		switch {
		case c == ' ':
			fields++
		case fields == 1 && c >= '0' && c <= '9':
			pages = pages*10 + float64(c-'0')
		}
	}
	return pages * r.page / (1 << 20)
}

// during samples RSS until f returns and reports the peak sample.
func (r *rssSampler) during(f func()) float64 {
	stop, done := make(chan struct{}), make(chan float64)
	go func() {
		buf := make([]byte, 128)
		peak := r.rssMB(buf)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				done <- max(peak, r.rssMB(buf))
				return
			case <-t.C:
				peak = max(peak, r.rssMB(buf))
			}
		}
	}()
	f()
	close(stop)
	return <-done
}

// stealTicks reads the host's cumulative stolen and total CPU time
// (/proc/stat, in clock ticks): time the hypervisor gave this
// machine's CPUs to others, a measure of host contention.
func stealTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		var x float64
		fmt.Sscanf(v, "%g", &x)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// tail returns the highest-percentile sample with at least ten samples
// above it and its percentile.  ok is false below 21 samples, where
// that rank would sit under the median.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n < 21 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11
	return s[k], 100 * float64(k+1) / float64(n), true
}

// usage is what one campaign consumed.
type usage struct {
	wall, cpu      float64
	rssMB          float64 // peak sampled resident set
	mallocs, bytes uint64
}

// measure runs one campaign from a freshly collected heap and returns
// its outputs and consumption.
func measure(rss *rssSampler, inst *instance, tr *tracer, root int) (res result, u usage, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	u.rssMB = rss.during(func() { res, err = runCampaign(inst, tr, root) })
	u.wall = time.Since(t0).Seconds()
	u.cpu = cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	u.mallocs, u.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return res, u, err
}

// more reports whether another campaign fits in the run: one always
// runs, and later ones start only if a median-length campaign would
// end within --seconds of start.
func more(start time.Time, o options, durs []float64) bool {
	if len(durs) == 0 {
		return true
	}
	return time.Since(start).Seconds()+median(durs) <= o.seconds.Seconds()
}

func untracedRun(w *workload, o options, out io.Writer) error {
	prov := newProvenance(w, o)
	rss, err := newRSSSampler()
	if err != nil {
		return err
	}
	defer rss.f.Close()
	st, inst, err := newSetupTimer(w, o)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	checks := []campaignCheck{warmUp(inst)}

	var durs, cpus, peaks []float64
	var mallocs, bytes uint64
	steal0, ticks0 := stealTicks()
	for start := time.Now(); more(start, o, durs); {
		if err := st.sample(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		res, u, err := measure(rss, inst, nil, 0)
		checks = append(checks, checkOf(res, err))
		durs, cpus, peaks = append(durs, u.wall), append(cpus, u.cpu), append(peaks, u.rssMB)
		mallocs += u.mallocs
		bytes += u.bytes
	}
	if steal1, ticks1 := stealTicks(); ticks1 > ticks0 {
		prov.HostStealShare = (steal1 - steal0) / (ticks1 - ticks0)
	}

	failed, first, from, err := verify(w, o, inst, checks)
	if err != nil {
		return err
	}
	prov.ExpectedFrom = from
	presented := float64(inst.presented)
	faults := presented * float64(len(durs))
	prov.Campaigns, prov.SetupSamples = len(durs), len(st.samples)
	vals := map[string]float64{
		"setup_s":               median(st.samples),
		"campaign_s.p50":        median(durs),
		"faults_per_s":          presented / median(durs),
		"cpu_s_per_mfault":      median(cpus) / (presented / 1e6),
		"allocs_per_fault":      float64(mallocs) / faults,
		"alloc_bytes_per_fault": float64(bytes) / faults,
		"rss_peak_mb":           median(peaks),
	}
	notes := map[string]string{
		"setup_s":          fmt.Sprintf("median of %d samples, %d builds each", len(st.samples), st.batch),
		"campaign_s.p50":   fmt.Sprintf("n=%d", len(durs)),
		"faults_per_s":     fmt.Sprintf("%d presented faults per campaign / median campaign", inst.presented),
		"cpu_s_per_mfault": "median campaign",
		"rss_peak_mb":      fmt.Sprintf("median of per-campaign peaks sampled every %s", rssEvery),
	}
	fmt.Fprintf(out, "# campaign_s samples: %s\n", formatSamples(durs))
	if v, pct, ok := tail(durs); ok {
		fmt.Fprintf(out, "# campaign_s.tail = %.6f s (p%.1f of n=%d, 10 samples above)\n", v, pct, len(durs))
	} else {
		fmt.Fprintf(out, "# campaign_s.tail unresolved: n=%d < 21 campaigns\n", len(durs))
	}
	fmt.Fprintf(out, "# failed_frac = %d/%d campaigns (warm-up included)\n", failed, len(checks))
	return report(out, prov, endToEnd, vals, notes, len(checks), failed, first)
}

func formatSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// tracedCampaign is one campaign of the traced run.
type tracedCampaign struct {
	res  result
	snap telemetry.Snapshot
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 || s[1].Value.Kind() != rtmetrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// tracedRun probes the workload's layers, then alternates untraced
// campaigns with traced ones (telemetry registry attached, spans
// recorded) until --seconds have passed since the run began.
func tracedRun(w *workload, o options, out io.Writer) error {
	begin := time.Now()
	prov := newProvenance(w, o)
	rss, err := newRSSSampler()
	if err != nil {
		return err
	}
	defer rss.f.Close()
	inst, err := w.setup(o.seed, o.runDir)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	checks := []campaignCheck{warmUp(inst)}
	tr := newTracer()
	m := make(metrics)
	if err := inst.probe(tr, m); err != nil {
		return fmt.Errorf("layer probe: %w", err)
	}

	gc0, cpu0 := gcCPU()
	var plain, traced, all []float64
	var camps []tracedCampaign
	for more(begin, o, all) || len(traced) == 0 {
		if len(plain) <= len(traced) {
			res, u, err := measure(rss, inst, nil, 0)
			plain, all = append(plain, u.wall), append(all, u.wall)
			checks = append(checks, checkOf(res, err))
			continue
		}
		reg := telemetry.NewRegistry()
		telemetry.SetActive(reg)
		tr.campaign = len(traced) + 1
		root := tr.begin("campaign", 0)
		res, u, err := measure(rss, inst, tr, root)
		tr.end(root)
		telemetry.SetActive(nil)
		traced, all = append(traced, u.wall), append(all, u.wall)
		checks = append(checks, checkOf(res, err))
		camps = append(camps, tracedCampaign{res: res, snap: reg.Snapshot()})
	}
	gc1, cpu1 := gcCPU()
	if cpu1 > cpu0 {
		m["go.gc_cpu_frac"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	m["trace.overhead_frac"] = median(traced)/median(plain) - 1
	campaignLayers(camps, m)

	failed, first, from, err := verify(w, o, inst, checks)
	if err != nil {
		return err
	}
	prov.ExpectedFrom = from
	prov.Campaigns = len(plain) + len(traced)
	path := filepath.Join(o.traceDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
	if err := tr.write(path, prov); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "# spans: %d written to %s\n", len(tr.spans), path)
	fmt.Fprintf(out, "# self time by span name (s): ")
	for i, lt := range tr.selfTimes() {
		if i > 0 {
			fmt.Fprint(out, ", ")
		}
		fmt.Fprintf(out, "%s %.4f/%d", lt.Name, lt.SelfS, lt.Count)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "# collapse is untimed inside EngineStats: fault.collapse.* comes from the probe's own spans only")
	fmt.Fprintf(out, "# campaigns: %d untraced (p50 %.4fs), %d traced (p50 %.4fs)\n",
		len(plain), median(plain), len(traced), median(traced))
	var notRun []string
	for _, s := range perLayer {
		if m[s.name] == 0 {
			notRun = append(notRun, s.name)
		}
	}
	if len(notRun) > 0 {
		fmt.Fprintf(out, "# not run or zero on this workload: %s\n", strings.Join(notRun, ", "))
	}
	return report(out, prov, perLayer, m, nil, len(checks), failed, first)
}

// campaignLayers derives the per-layer metrics the traced campaigns'
// engine reports and telemetry deltas give: medians over campaigns of
// per-campaign sums, and ratios over all traced campaigns.
func campaignLayers(camps []tracedCampaign, m metrics) {
	var prepare, detect, merge, writes, writeS, load, mergeS, bytes []float64
	var kernel, sourceWait, sinkWait, workerTime, entered, offered, hits, misses float64
	for _, c := range camps {
		var elapsed, mergeNanos time.Duration
		for _, s := range c.res.sessions {
			for _, st := range s.Stages {
				if st.Stats == nil {
					continue
				}
				elapsed += st.Stats.Elapsed
				mergeNanos += st.Stats.MergeNanos
				for i := range st.Stats.KernelTime {
					kernel += st.Stats.KernelTime[i].Seconds()
					sourceWait += st.Stats.SourceWait[i].Seconds()
					sinkWait += st.Stats.SinkWait[i].Seconds()
				}
				workerTime += float64(len(st.Stats.KernelTime)) * st.Stats.Elapsed.Seconds()
				entered += float64(st.Entered)
			}
			offered += float64(s.Cumulative.Total) * float64(len(s.Results))
		}
		if c.res.runWall > 0 {
			prepare = append(prepare, (c.res.runWall - elapsed).Seconds())
		}
		detect = append(detect, elapsed.Seconds())
		merge = append(merge, mergeNanos.Seconds())
		hits += float64(c.snap.CacheHits)
		misses += float64(c.snap.CacheMisses)
		writes = append(writes, float64(c.snap.CheckpointWrites))
		writeS = append(writeS, c.snap.CheckpointTime.Seconds())
		load = append(load, c.res.load.Seconds())
		mergeS = append(mergeS, c.res.merge.Seconds())
		bytes = append(bytes, float64(c.res.checkpointBytes))
	}
	if workerTime > 0 {
		m["sim.driver.kernel_share"] = kernel / workerTime
		m["sim.driver.source_wait_share"] = sourceWait / workerTime
		m["sim.driver.sink_wait_share"] = sinkWait / workerTime
	}
	m["coverage.prepare_s"] = median(prepare)
	m["coverage.detect_s"] = median(detect)
	m["coverage.merge_s"] = median(merge)
	if offered > 0 {
		m["coverage.drop.simulated_frac"] = entered / offered
	}
	if hits+misses > 0 {
		m["coverage.cache.hit_frac"] = hits / (hits + misses)
	}
	m["checkpoint.writes"] = median(writes)
	m["checkpoint.write_s"] = median(writeS)
	m["checkpoint.load_s"] = median(load)
	m["checkpoint.merge_s"] = median(mergeS)
	m["checkpoint.bytes"] = median(bytes)
}

// report prints the human-readable metric lines and then, as the last
// line, the JSON result.
func report(out io.Writer, prov provenance, specs []metricSpec, vals map[string]float64, notes map[string]string, attempted, failed int, first string) error {
	pb, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# provenance %s\n", pb)
	if first != "" {
		fmt.Fprintf(out, "# FAILED %s\n", first)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(specs))
	for _, s := range specs {
		v := vals[s.name]
		ms[s.name] = metric{v, s.unit}
		line := fmt.Sprintf("%-32s %16.6g %s", s.name, v, s.unit)
		if n := notes[s.name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Fprintln(out, line)
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, ms})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	return nil
}

// regenerate computes the workload's expected outputs for the seed with
// the workload's reference engine and writes them under dir.
func regenerate(w *workload, o options, dir string, out io.Writer) error {
	inst, err := w.setup(o.seed, o.runDir)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if inst.regen == nil {
		return errors.New("this workload is checked against " + w.expectedAs + "'s expected outputs; regenerate those")
	}
	t0 := time.Now()
	b, engine, err := inst.regen()
	if err != nil {
		return err
	}
	path, err := writeExpected(dir, w, o.seed, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# wrote %s (%s engine, %s)\n", path, engine, time.Since(t0).Round(time.Millisecond))
	return nil
}
