// Command prbench is the repository's end-to-end benchmark: seven
// workloads over the public forwarding, compile, recompile and soak
// entry points, each checked for correct output while it is timed.
//
//	prbench -seed 3                        every workload, untraced
//	prbench -workload fwd_egress -trace 1  one workload with per-layer rows
//	prbench -compare A/results.jsonl B/results.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a wrong answer makes the exit
// code non-zero. See ../README.md for the metric and workload tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"recycle/internal/telemetry"
)

// processStart anchors setup_s's first repetition at process start.
var processStart = time.Now()

// runCtx carries one workload run's parameters in and its measurements out.
type runCtx struct {
	seed    int64
	seconds float64
	scale   float64
	trace   bool
	out     string

	attempted, failed int64
	metrics           map[string]float64
	setupS            []float64          // every set-up repetition so far, in seconds
	spreads           map[string]float64 // IQR/median of a rate's segments
	poolHash          string
	failures          []int
	shards            int
	tracer            *telemetry.Tracer // traced runs: the in-memory span store

	win window
}

func newRunCtx(seed int64, seconds, scale float64, trace bool, out string) *runCtx {
	c := &runCtx{seed: seed, seconds: seconds, scale: scale, trace: trace, out: out,
		metrics: map[string]float64{}, spreads: map[string]float64{}}
	if trace {
		c.tracer = telemetry.NewTracer(1 << 15)
	}
	return c
}

func (c *runCtx) set(name string, v float64) { c.metrics[name] = v }

// scaled shrinks a count by -scale, never below min.
func (c *runCtx) scaled(n, min int) int {
	if v := int(float64(n) * c.scale); v > min {
		return v
	}
	return min
}

// window is the resource account of a timed phase: CPU time from
// getrusage, allocation and GC work from the runtime.
type window struct {
	cpu time.Duration
	ms  runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (c *runCtx) beginWindow() {
	runtime.ReadMemStats(&c.win.ms)
	c.win.cpu = cpuTime()
}

// endWindow closes the account opened by beginWindow over ops operations.
func (c *runCtx) endWindow(ops float64) {
	cpu := cpuTime() - c.win.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ops <= 0 {
		return
	}
	c.set("cpu.us_per_op", float64(cpu.Nanoseconds())/1e3/ops)
	c.set("gc.cycles", float64(ms.NumGC-c.win.ms.NumGC))
	c.set("gc.pause_ms", float64(ms.PauseTotalNs-c.win.ms.PauseTotalNs)/1e6)
	c.set("alloc.per_kop", float64(ms.TotalAlloc-c.win.ms.TotalAlloc)/ops*1e3)
}

// oneProcessor runs the caller on one processor until the returned function
// is called. The ctl_* workloads use it: the builds fan out over
// GOMAXPROCS workers that meet at a barrier after every stage, so with two
// the run waits for whichever core the neighbours are on, and ten runs of
// one binary read 12 to 17% apart where one processor reads 3 to 4%. What
// the second worker buys is a question for the compile report of prsim.
func oneProcessor() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// reportRate sets ops_per_s from the rates of a run's segments, each over
// the same work, and prints the typical segment beside it.
func (c *runCtx) reportRate(rates []float64) {
	c.set("ops_per_s", quietRate(rates))
	c.spreads["ops_per_s"] = spread(rates)
	fmt.Printf("# %d segments: median %.6g ops/s, fastest %.6g\n", len(rates), median(rates), quantile(rates, 1))
}

// timeSetup repeats a workload's set-up and returns the last state; setup_s
// is the quiet time of all repetitions so far. The first call repeats at
// least four times and until a second and a half has gone into it, its
// first repetition timed from process start. The ctl_* workloads repeat
// their set-up during the timed window as well (a later call goes on for a
// quarter of a second): theirs are the set-ups that miss the cache, the
// neighbours' busy spells last seconds, and repetitions in one place read
// 45% apart between two half hours. The caller lets go of the previous
// state first: each repetition starts from a collected heap, so that the
// peak of resident memory is one set-up's and not their sum.
func timeSetup[T any](c *runCtx, setup func() (T, error)) (T, error) {
	var (
		state   T
		total   time.Duration
		minReps = 1
		budget  = time.Duration(c.scale * float64(250*time.Millisecond))
	)
	first := len(c.setupS) == 0
	if first {
		minReps, budget = c.scaled(4, 1), 6*budget
	}
	for rep := 0; rep < minReps || (total < budget && rep < 100); rep++ {
		t0 := processStart
		if !first || rep > 0 {
			var zero T
			state = zero
			runtime.GC()
			t0 = time.Now()
		}
		var err error
		if state, err = setup(); err != nil {
			return state, err
		}
		total += c.setupTook(time.Since(t0))
	}
	return state, nil
}

// setupTook counts one more repetition of the set-up.
func (c *runCtx) setupTook(d time.Duration) time.Duration {
	c.setupS = append(c.setupS, d.Seconds())
	c.set("setup_s", quietTime(c.setupS))
	return d
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as -compare reads it back from results.jsonl.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Scale     float64                `json:"scale"`
	Env       environment            `json:"env"`
	Shards    int                    `json:"shards"`
	PoolHash  string                 `json:"pool_hash,omitempty"`
	Failures  []int                  `json:"failed_links,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Spreads   map[string]float64     `json:"spreads,omitempty"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "drives pairs, failure set, shuffle, edit stream and soak seed")
		seconds  = flag.Float64("seconds", 8, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 repeats the workload with decorators, registry and spans on and reports the per-layer metrics")
		out      = flag.String("out", "", "directory for results.jsonl and trace files (default a fresh temp dir)")
		scale    = flag.Float64("scale", 1, "shrinks counts, repetitions and durations for smoke tests; BENCHMARK.json pins 1")
		compare  = flag.Bool("compare", false, "compare two results.jsonl files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results.jsonl files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if runtime.GOMAXPROCS(0) < 2 {
		fatal(fmt.Errorf("GOMAXPROCS is %d; the engine workloads need 2", runtime.GOMAXPROCS(0)))
	}
	if *out == "" {
		dir, err := os.MkdirTemp("", "prbench-")
		if err != nil {
			fatal(err)
		}
		*out = dir
	} else if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace, *out, *scale))
	}
	w := findWorkload(*workload)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	c := newRunCtx(*seed, *seconds, *scale, *trace != 0, *out)
	err := w.run(c)
	if err == nil {
		err = finish(w, c)
	}
	if err != nil {
		// A failed check reports no metrics.
		fmt.Fprintf(os.Stderr, "prbench: %s: %v\n", w.Name, err)
		emit(w, c, false)
		os.Exit(1)
	}
	emit(w, c, true)
}

// runAll runs every workload in a process of its own, so that peak
// resident memory is each workload's and not the largest so far.
func runAll(seed int64, seconds float64, trace int, out string, scale float64) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, w := range allWorkloads() {
		cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", out, "-scale", fmt.Sprint(scale))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "prbench: %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

// finish adds the process-wide metrics, writes the trace file and checks
// that every promised metric is there.
func finish(w *workloadDef, c *runCtx) error {
	c.set("peak_rss_mb", peakRSSMB())
	if c.trace {
		path := filepath.Join(c.out, w.Name+".trace.json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := telemetry.WriteChromeTrace(f, c.tracer.SpanSnapshot(), nil); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if !c.trace {
		// A layer a workload never enters reports 0; an end-to-end metric never does.
		for _, d := range endToEnd {
			if v, ok := c.metrics[d.Name]; !ok || v <= 0 {
				return fmt.Errorf("metric %s reads %v (measured: %v); end-to-end metrics are never 0", d.Name, v, ok)
			}
		}
	}
	if c.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	if c.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", c.failed, c.attempted)
	}
	return nil
}

func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// emit prints the run for people, appends it to results.jsonl and ends
// standard output with the one-line result.
func emit(w *workloadDef, c *runCtx, correct bool) {
	rec := record{
		Workload: w.Name, Seed: c.seed, Trace: c.trace, Seconds: c.seconds, Scale: c.scale,
		Env: readEnvironment(), Shards: c.shards, PoolHash: c.poolHash, Failures: c.failures,
		Correct: correct, Attempted: c.attempted, Failed: c.failed,
		Metrics: map[string]metricValue{}, Spreads: c.spreads,
	}
	if rec.Attempted < 1 {
		rec.Attempted = 1
	}
	if correct {
		for _, d := range reported(c.trace) {
			rec.Metrics[d.Name] = metricValue{c.metrics[d.Name], d.Unit}
		}
	}
	fmt.Printf("# %s seed=%d trace=%v seconds=%g scale=%g shards=%d pool=%s failed_links=%v\n",
		w.Name, c.seed, c.trace, c.seconds, c.scale, c.shards, c.poolHash, c.failures)
	fmt.Printf("# %s\n", rec.Env)
	for _, d := range reported(c.trace) {
		if m, ok := rec.Metrics[d.Name]; ok {
			line := fmt.Sprintf("%-34s %14.6g %s", d.Name, m.Value, m.Unit)
			if s, ok := c.spreads[d.Name]; ok {
				line += fmt.Sprintf("   %s.spread %.4f", d.Name, s)
			}
			fmt.Println(line)
		}
	}
	if f, err := os.OpenFile(filepath.Join(c.out, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
		_ = json.NewEncoder(f).Encode(rec) // a lost record only shortens a later -compare
		f.Close()
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prbench:", err)
	os.Exit(2)
}

// environment is what a result needs beside its numbers to be compared.
type environment struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
}

func (e environment) String() string {
	return fmt.Sprintf("commit=%s %s nproc=%d GOMAXPROCS=%d cpu=%q", e.Commit, e.Go, e.NProc, e.GOMAXPROCS, e.CPU)
}

func readEnvironment() environment {
	e := environment{Commit: os.Getenv("PRBENCH_COMMIT"), Go: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown"}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// peakRSSMB is VmHWM, the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), "kB"), &kb); err == nil {
				return kb / 1e3
			}
		}
	}
	return 0
}
