// Command perfbench is the repository's end-to-end benchmark. It
// deploys an OASIS cluster in one process, wired as cmd/oasisd wires
// it (deploy.go), drives it over loopback sockets with an open-loop
// generator (gen.go), checks every answer, and prints every metric by
// name with its unit, then one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures a client sees;
// with -trace 1 they are the per-layer figures of a traced phase and
// the tracing overhead. NOTES.md explains the workloads and metrics.
//
// Run it from the root of the repository through the wrapper, which
// builds it first:
//
//	bash perfbench/run.sh --workload gateway-read --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"oasis/internal/clock"
)

// workload is one traffic mix. rate is the main phase's offered rate
// over all kinds; mix gives each kind's share.
type workload struct {
	name    string
	rate    float64
	mix     [numKinds]float64
	journal bool // the origin's store is journaled (oasisd -store-dir)
}

// The mixes are in NOTES.md with the reasons for each. A workload runs
// only its own operations; the figures of the others report n=0.
var workloads = []workload{
	{name: "gateway-read", rate: 4000, mix: [numKinds]float64{
		kIntrospectLive: 0.85, kIntrospectDead: 0.10, kIssue: 0.04, kRevoke: 0.01}, journal: true},
	{name: "gateway-write", rate: 2500, mix: [numKinds]float64{
		kIssue: 0.45, kRevoke: 0.45, kIntrospectDead: 0.10}, journal: true},
	{name: "revoke-tree", rate: 2050, mix: [numKinds]float64{
		kValidate: 2000.0 / 2050, kPropagate: 50.0 / 2050}},
}

// Phase lengths (shares of -seconds) and counts.
const (
	mainShare  = 0.8 // untraced run: main phase; the ladder gets the rest
	warmup     = 500 * time.Millisecond
	traceSlice = time.Second // traced run: tracing switches on or off this often
	setUps     = 5           // set-ups per run; setup_s is their median

	// How far past its scheduled end a phase may run before operations
	// not yet begun are abandoned. In a measured phase an abandoned
	// operation is a failure; on the ladder it fails the step.
	phaseOverrun = 10 * time.Second
	stepOverrun  = time.Second

	ladderRatio = 1.06 // rate step of the max_rps ladder
	ladderStart = 12   // first rung: base×1.06^12, about twice the base rate
	ladderStep  = time.Second
	ladderLimit = time.Millisecond // median latency limit a ladder rate must meet
	ladderLate  = time.Millisecond // median lateness of a step's last tenth above this is a growing backlog
	maxReplays  = 1000             // engine replays per kind in a traced run
)

type config struct {
	wl      *workload
	seed    int64
	seconds int
	trace   bool
	root    string
	tmp     string
	workers int // generator goroutines, one gateway connection each: nproc
	setups  int // setUps; tests run fewer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	nproc := runtime.NumCPU()
	var (
		name  = fl.String("workload", "", "workload: gateway-read, gateway-write or revoke-tree")
		seed  = fl.Int64("seed", 1, "workload seed")
		secs  = fl.Int("seconds", 20, "measured seconds")
		trace = fl.Int("trace", 0, "1 runs the traced phase and prints per-layer metrics")
		root  = fl.String("root", ".", "repository root")
		tmp   = fl.String("tmp", os.TempDir(), "directory for the origin's store")
	)
	if err := fl.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{seed: *seed, seconds: *secs, trace: *trace == 1, root: *root, tmp: *tmp, workers: nproc, setups: setUps}
	for i := range workloads {
		if workloads[i].name == *name {
			cfg.wl = &workloads[i]
		}
	}
	switch {
	case cfg.wl == nil:
		return cfg, fmt.Errorf("unknown workload %q", *name)
	case *trace != 0 && *trace != 1:
		return cfg, fmt.Errorf("-trace must be 0 or 1")
	case cfg.seconds < 1:
		return cfg, fmt.Errorf("-seconds must be at least 1")
	case runtime.GOMAXPROCS(0) > nproc:
		return cfg, fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d", runtime.GOMAXPROCS(0), nproc)
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "go.mod")); err != nil {
		return cfg, fmt.Errorf("repository root: %w", err)
	}
	return cfg, nil
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// deployment is one set-up: the cluster, the generator's view of it and
// its workers.
type deployment struct {
	sys *system
	st  *state
	ws  []*worker
}

func (d *deployment) close() {
	for _, w := range d.ws {
		w.close()
	}
	d.sys.teardown()
}

func setUp(clk clock.Clock, tr *tracer, cfg config) (*deployment, error) {
	sys, err := deploy(clk, tr, cfg.tmp, cfg.wl.journal)
	if err != nil {
		return nil, err
	}
	d := &deployment{sys: sys, st: &state{sys: sys, tr: tr}}
	for i := 0; i < cfg.workers; i++ {
		w, err := newWorker(d.st, i, cfg.seed)
		if err != nil {
			d.close()
			return nil, err
		}
		d.ws = append(d.ws, w)
	}
	if err := d.st.populate(d.ws); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func header(w io.Writer, cfg config) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+modified"
			}
		}
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%v\n", cfg.wl.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "# machine nproc=%d GOMAXPROCS=%d go=%s os=%s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "# source commit=%s tree=%s\n", commit, sourceDigest(cfg.root))
	fmt.Fprintf(w, "# generator open-loop, %d goroutines, %d gateway connections, loopback 127.0.0.1; cluster of %d members in one process, origin store journaled=%v\n",
		cfg.workers, cfg.workers, ringSize, cfg.wl.journal)
}

// sourceDigest hashes the program's sources (go.mod, cmd/, internal/),
// identifying the code measured even in a checkout without git.
func sourceDigest(root string) string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runner is one benchmark run over one deployment.
type runner struct {
	cfg config
	clk clock.Clock
	tr  *tracer
	d   *deployment
	out io.Writer
	res *result
	ids uint64 // first request id of the next phase
}

// phase runs the workload's mix open-loop at rate for dur; operations
// not begun overrun past the phase's scheduled end are abandoned.
func (r *runner) phase(rate float64, dur time.Duration, tag int64, overrun time.Duration) []record {
	ph := newPhase(&r.cfg.wl.mix, rate, dur, r.cfg.seed*1000+tag)
	recs := r.d.st.run(r.d.ws, ph, r.ids, overrun)
	r.ids += uint64(len(ph.kinds))
	return recs
}

// count adds a phase's operations to the result and prints its first
// failure, if any.
func (r *runner) count(rs []record, what string) {
	r.res.Attempted += len(rs)
	r.res.Failed += failures(rs)
	for i := range rs {
		if !rs[i].ok {
			fmt.Fprintf(r.out, "# failed %s %s: %s\n", what, opMetric(rs[i].kind), rs[i].err)
			return
		}
	}
}

func bench(cfg config, out io.Writer) (*result, error) {
	if nproc := runtime.NumCPU(); cfg.workers < 1 || cfg.workers > nproc {
		return nil, fmt.Errorf("%d generator goroutines and connections requested; the machine has nproc=%d", cfg.workers, nproc)
	}
	header(out, cfg)
	clk := clock.Real()
	tr := newTracer(clk)

	// Host speed drifts over tens of seconds while set-ups in a row agree,
	// so half the set-ups are timed before the run and half after it:
	// their median spans the run.
	var setups []float64
	timedSetUp := func() (*deployment, error) {
		t0 := clk.Now()
		d, err := setUp(clk, tr, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, clk.Now().Sub(t0).Seconds())
		return d, nil
	}
	var d *deployment
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	for i := 0; i < (cfg.setups+1)/2; i++ {
		if d != nil {
			d.close()
		}
		var err error
		if d, err = timedSetUp(); err != nil {
			return nil, err
		}
	}
	runtime.GC() // the earlier set-ups' garbage is not the run's to collect

	r := &runner{cfg: cfg, clk: clk, tr: tr, d: d, out: out, res: &result{Metrics: map[string]resultValue{}}, ids: 1}
	r.count(r.phase(cfg.wl.rate, warmup, 0, phaseOverrun), "warm-up")
	total := time.Duration(cfg.seconds) * time.Second
	names := endToEnd
	var all []metric
	if cfg.trace {
		names = perLayer
		var err error
		if all, err = r.traced(total); err != nil {
			return nil, err
		}
	} else {
		all = r.untraced(total)
	}
	fmt.Fprintf(out, "# cluster: %d source-state transitions, %d failed snapshots, %d notifications dropped\n",
		d.sys.sourceEvents.Load(), d.sys.snapErrs.Load(), d.sys.dropped())
	d.close()
	d = nil
	if !cfg.trace {
		for len(setups) < cfg.setups {
			extra, err := timedSetUp()
			if err != nil {
				return nil, err
			}
			extra.close()
		}
		all = append(all, metric{"setup_s", median(setups), "s",
			fmt.Sprintf("median of %d set-ups, %d before the run and %d after %v",
				len(setups), (cfg.setups+1)/2, cfg.setups-(cfg.setups+1)/2, roundAll(setups))})
	}
	printMetrics(out, all)
	fmt.Fprintf(out, "fail_ratio %d/%d\n", r.res.Failed, r.res.Attempted)
	for _, m := range all {
		if slices.Contains(names, m.name) {
			r.res.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
		}
	}
	if len(r.res.Metrics) != len(names) {
		return nil, fmt.Errorf("internal: %d of %d metrics computed", len(r.res.Metrics), len(names))
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// untraced runs the main phase and the max_rps ladder with tracing off.
func (r *runner) untraced(total time.Duration) []metric {
	mainDur := time.Duration(float64(total) * mainShare)
	cpu0 := cpuTime()
	recs := r.phase(r.cfg.wl.rate, mainDur, 1, phaseOverrun)
	cpu := cpuTime() - cpu0
	r.count(recs, "main phase")
	all := latencyMetrics(recs)
	all = append(all, metric{"cpu_us_per_op", us(int64(cpu)) / float64(len(recs)), "us",
		fmt.Sprintf("process CPU time (user+system, generator included) over %d operations", len(recs))})
	maxRPS, steps := ladder(r.cfg, r.clk, total-mainDur, func(rate float64, dur time.Duration, tag int64) []record {
		return r.phase(rate, dur, tag, stepOverrun)
	})
	missed := 0
	for _, s := range steps {
		r.count(s.recs, "ladder step")
		missed += s.missed
	}
	all = append(all, metric{"max_rps", maxRPS, "req/s", ladderNote(steps)})
	var late []int64
	for i := range recs {
		late = append(late, recs[i].began-recs[i].due)
	}
	fmt.Fprintf(r.out, "# main phase: offered %.0f ops/s, %d operations, generator late p50 %.4f ms p99 %.4f ms\n",
		r.cfg.wl.rate, len(recs), ms(pct(late, 0.5)), ms(pct(late, 0.99)))
	fmt.Fprintf(r.out, "# ladder: %d operations abandoned past their step's end (overload; failed the step, not counted as wrong answers)\n", missed)
	return all
}

// traced runs one phase in which tracing switches on and off every
// traceSlice, so the traced and untraced figures share the host's
// conditions, then the engine replays, and computes the per-layer
// figures and the tracing overhead.
func (r *runner) traced(total time.Duration) ([]metric, error) {
	d, st, tr := r.d, r.d.st, r.tr
	tr.reset()
	st.shed.Store(0)
	st.limited.Store(0)
	st.pendBus.Store(0)
	st.pendBroker.Store(0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	in := tracedInputs{sys: d.sys, st: st, audit0: d.sys.origin().svc.AuditSnapshot()}

	var recs []record
	bounds := r.alternate(total, func() { recs = r.phase(r.cfg.wl.rate, total, 2, phaseOverrun) })
	tr.setOn(false)
	in.audit1 = d.sys.origin().svc.AuditSnapshot()
	runtime.ReadMemStats(&ms1)
	in.mallocs, in.allocB, in.gcPauseNs = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, ms1.PauseTotalNs-ms0.PauseTotalNs
	r.count(recs, "traced run")

	// Each operation belongs to the slice it began in.
	var cpu, ops [2]float64
	var lat [2][]int64
	for i := range recs {
		recs[i].traced = bounds[sliceOf(bounds, recs[i].began)].on
		on := 0
		if recs[i].traced {
			on = 1
		}
		ops[on]++
		lat[on] = append(lat[on], recs[i].latency())
	}
	for k := 0; k+1 < len(bounds); k++ {
		on := 0
		if bounds[k].on {
			on = 1
		}
		cpu[on] += float64(bounds[k+1].cpu - bounds[k].cpu)
	}
	in.recs = recs
	in.untracedP50, in.tracedP50 = pct(lat[0], 0.5), pct(lat[1], 0.5)
	in.untracedCPUPerOp, in.cpuPerOp = ratio(cpu[0], ops[0]), ratio(cpu[1], ops[1])
	in.slices = len(bounds) - 1

	var err error
	if in.replayValidateNs, in.replayEnterNs, err = replay(d, r.clk); err != nil {
		return nil, err
	}
	in.liveEnd = d.sys.origin().store.Live()
	all := layerMetrics(in)
	var on []record
	for i := range recs {
		if recs[i].traced {
			on = append(on, recs[i])
		}
	}
	for _, m := range latencyMetrics(on) {
		m.note += ", traced slices"
		all = append(all, m)
	}
	return all, nil
}

// boundary starts one slice of a phase.
type boundary struct {
	at  int64         // tracer time
	cpu time.Duration // process CPU time then
	on  bool          // tracing state until the next boundary
}

// alternate calls run, a phase of length dur, while switching tracing
// off and on in slices of traceSlice (at least four slices), so the
// traced and untraced slices share the host's conditions. It records a
// boundary at the start, at every switch and at the end.
func (r *runner) alternate(dur time.Duration, run func()) []boundary {
	every := min(traceSlice, dur/4)
	var bounds []boundary
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		on := false
		bounds = append(bounds, boundary{at: r.tr.now(), cpu: cpuTime()})
		for {
			select {
			case <-done:
				bounds = append(bounds, boundary{at: r.tr.now(), cpu: cpuTime(), on: on})
				return
			case <-r.clk.After(every):
			}
			on = !on
			r.tr.setOn(on)
			bounds = append(bounds, boundary{at: r.tr.now(), cpu: cpuTime(), on: on})
		}
	}()
	run()
	close(done)
	wg.Wait()
	return bounds
}

// sliceOf is the index of the slice that tracer time t falls in.
func sliceOf(bounds []boundary, t int64) int {
	k := sort.Search(len(bounds), func(j int) bool { return bounds[j].at > t }) - 1
	return max(0, min(k, len(bounds)-2))
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}

// cpuTime is the CPU time the process has used, user and system.
// Time the host gave to other guests is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// step is one rung of the max_rps ladder.
type step struct {
	rate   float64
	p50    int64
	late   int64 // median lateness of the step's last tenth
	failed int
	missed int // operations abandoned past the step's end
	pass   bool
	recs   []record // the operations run
}

// ladder finds the highest rate on the grid base×ladderRatio^k at which
// the median latency of all operations meets ladderLimit with no
// failures and no growing backlog. It climbs from k = ladderStart four
// rungs at a time until two rungs in a row fail (descending instead if
// the first fails), then tries single rungs above the best pass. Host
// stalls can fail a rung the program could sustain but cannot make an
// overloaded rung pass, so the result is the highest rung that passed.
// It stops when the budget of wall time is spent.
func ladder(cfg config, clk clock.Clock, budget time.Duration, phaseRun func(float64, time.Duration, int64) []record) (float64, []step) {
	var steps []step
	deadline := clk.Now().Add(budget)
	tested := map[int]bool{}
	best, found := 0, false
	try := func(k int) (pass, ran bool) {
		if tested[k] || clk.Now().Add(ladderStep).After(deadline) {
			return false, false
		}
		tested[k] = true
		rate := cfg.wl.rate * math.Pow(ladderRatio, float64(k))
		var recs []record
		missed := 0
		for _, rec := range phaseRun(rate, ladderStep, int64(100+len(steps))) {
			if rec.abandoned {
				missed++
			} else {
				recs = append(recs, rec)
			}
		}
		s := step{rate: rate, recs: recs, failed: failures(recs), missed: missed}
		var lat, late []int64
		for i := range recs {
			lat = append(lat, recs[i].latency())
			if i >= len(recs)*9/10 {
				late = append(late, recs[i].began-recs[i].due)
			}
		}
		s.p50, s.late = pct(lat, 0.5), pct(late, 0.5)
		s.pass = s.failed == 0 && s.missed == 0 && s.p50 <= int64(ladderLimit) && s.late <= int64(ladderLate)
		steps = append(steps, s)
		if s.pass && (!found || k > best) {
			best, found = k, true
		}
		return s.pass, true
	}
	pass, ran := try(ladderStart)
	if !ran {
		return 0, steps
	}
	if pass {
		for k, fails := ladderStart+4, 0; fails < 2; k += 4 {
			pass, ran := try(k)
			if !ran {
				break
			}
			if pass {
				fails = 0
			} else {
				fails++
			}
		}
	} else {
		for k := ladderStart - 4; k >= -4*ladderStart; k -= 4 {
			if pass, ran := try(k); pass || !ran {
				break
			}
		}
	}
	if !found {
		return 0, steps
	}
	for k := best + 1; k < best+4; k++ {
		if _, ran := try(k); !ran {
			break
		}
	}
	return cfg.wl.rate * math.Pow(ladderRatio, float64(best)), steps
}

func ladderNote(steps []step) string {
	var parts []string
	for _, s := range steps {
		verdict := "fail"
		if s.pass {
			verdict = "pass"
		}
		parts = append(parts, fmt.Sprintf("%.0f:%s(p50 %.2fms)", s.rate, verdict, ms(s.p50)))
	}
	return "ladder " + strings.Join(parts, " ")
}

// replay times the workload's own inputs straight into the engine:
// Validate of the live tokens' certificates and Enter of the run's
// issue requests (none in revoke-tree, which issues no tokens). Tracing
// is off, so only the engine is timed.
func replay(d *deployment, clk clock.Clock) (validate, enter []int64, err error) {
	svc := d.sys.origin().svc
	d.st.mu.Lock()
	live := append([]*token(nil), d.st.live...)
	enters := append(d.st.enters[:0:0], d.st.enters...)
	d.st.mu.Unlock()
	for i, t := range live {
		if i == maxReplays {
			break
		}
		t0 := clk.Now()
		verr := svc.Validate(t.cert, t.cert.Client)
		validate = append(validate, int64(clk.Now().Sub(t0)))
		if verr != nil {
			return nil, nil, fmt.Errorf("replay: live certificate failed validation: %w", verr)
		}
	}
	for _, req := range enters {
		t0 := clk.Now()
		_, eerr := svc.Enter(req)
		enter = append(enter, int64(clk.Now().Sub(t0)))
		if eerr != nil {
			return nil, nil, fmt.Errorf("replay: entry failed: %w", eerr)
		}
	}
	return validate, enter, nil
}
