// Command bench is flopt's benchmark. It runs one workload, checks every
// output against the goldens, and prints its metrics, the last line of
// standard output being one JSON object:
//
//	go run . -workload simulate -seed 1 -seconds 20 -trace 0
//
// The four workloads are repro (a cold exp.Runner renders paper tables),
// simulate (closed-loop flopt.Run calls), offsets (open-loop offset
// queries against an in-process floptd) and service_mix (compiles,
// offsets and simulate jobs against a floptd with journals on). With
// -trace 0 the run reports the end-to-end metrics; with -trace 1 it
// replays the workload's inputs serially with a span around each layer
// call and reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"flopt/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// env is one run's settings.
type env struct {
	seed    int64
	window  time.Duration // measured time (-seconds)
	nproc   int           // CPUs: worker, shard and connection cap
	workDir string        // where a run may write files
	gold    *goldens
	rec     *recorder // non-nil in traced runs
	log     io.Writer
	// small shrinks every workload (fewer programs, one table) so the
	// smoke tests run them all in seconds.
	small bool
}

// rng returns a generator for one named input stream of the run, so
// each stream depends on the seed alone and not on the others' use.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + stream))
}

// programs returns the workload programs the run uses.
func (e *env) programs() []string {
	if e.small {
		return []string{"mgrid", "contour", "qio"}
	}
	return workloads.Names()
}

type workloadModes struct {
	run   func(context.Context, *env) (*outcome, error)
	trace func(context.Context, *env) (*outcome, error)
}

var workloadTable = map[string]workloadModes{
	"repro":       {reproRun, reproTrace},
	"simulate":    {simulateRun, simulateTrace},
	"offsets":     {offsetsRun, offsetsTrace},
	"service_mix": {serviceMixRun, serviceMixTrace},
}

// run executes the benchmark and returns its exit code: 0 when every
// output was correct, 1 when one was wrong or the run could not finish,
// 2 for bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: repro, simulate, offsets or service_mix")
	seed := fl.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fl.Int("seconds", 20, "measured time of the run in seconds")
	traced := fl.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics")
	spansPath := fl.String("spans", "", "with -trace 1, also write the recorded spans to this JSONL file")
	workDir := fl.String("workdir", ".bench_build", "directory for the files a run writes")
	update := fl.String("update", "", "regenerate the goldens into this testdata directory and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *update != "" {
		if err := writeGoldens(ctx, *update, runtime.GOMAXPROCS(0)); err != nil {
			fmt.Fprintln(stderr, "bench: update goldens:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadTable[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "bench: need -workload (repro, simulate, offsets, service_mix), -seconds ≥ 1 and -trace 0 or 1\n")
		return 2
	}
	gold, err := loadGoldens(testdata)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	e := &env{seed: *seed, window: time.Duration(*seconds) * time.Second, nproc: runtime.GOMAXPROCS(0),
		workDir: *workDir, gold: gold, log: stderr}
	return execute(ctx, e, w, *traced == 1, *spansPath, stdout, stderr)
}

// execute runs one workload on e and prints its outcome.
func execute(ctx context.Context, e *env, w workloadModes, traced bool, spansPath string, stdout, stderr io.Writer) int {
	f := w.run
	if traced {
		e.rec = newRecorder()
		f = w.trace
	}
	o, err := f(ctx, e)
	if err == nil && spansPath != "" && e.rec != nil {
		err = writeSpans(spansPath, e.rec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	o.Correct = len(o.problems) == 0
	for _, p := range o.problems {
		fmt.Fprintln(stderr, "bench: wrong output:", p)
	}
	names := make([]string, 0, len(o.Metrics))
	for n := range o.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", n, o.Metrics[n].Value, o.Metrics[n].Unit)
	}
	line, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !o.Correct {
		return 1
	}
	return 0
}

func writeSpans(path string, rec *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rounds calls round(0), round(1), … back to back while the next round,
// assumed to last as long as the previous one, still ends within window;
// the first round always runs. It returns the time measured.
func rounds(window time.Duration, round func(r int) error) (time.Duration, error) {
	start := time.Now()
	var last time.Duration
	for r := 0; r == 0 || time.Since(start)+last <= window; r++ {
		t0 := time.Now()
		if err := round(r); err != nil {
			return 0, err
		}
		last = time.Since(t0)
	}
	return time.Since(start), nil
}
