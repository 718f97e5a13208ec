// Command perfbench is the repository's benchmark. It generates a seeded
// lwfagen-style dataset, serves it in-process (one process, or a frontend
// over three in-process shards on loopback net/rpc), drives one named
// workload through loopback HTTP with two closed-loop clients, checks
// every answer, and prints one JSON result line. See METRICS.md.
//
//	bash perfbench/run.sh --workload drill_local --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root; all state lives under root/.bench_build
	smoke    bool   // tiny dataset, for the benchmark's own tests
	corrupt  bool   // perturb one expected answer: the gate must fire
	out      io.Writer
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errMismatch marks a correctness-gate failure.
var errMismatch = errors.New("correctness gate failed")

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "drill_local | drill_sharded | session_sharded | ingest_live")
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed: dataset, request pool and thresholds")
	flag.Float64Var(&opt.seconds, "seconds", 30, "measured window per run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&opt.root, "root", ".", "checkout root (state goes to <root>/.bench_build)")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny dataset and window, for the benchmark's own tests")
	flag.BoolVar(&opt.corrupt, "corrupt", false, "perturb one expected answer so the correctness gate fires")
	dict := flag.Bool("dict", false, "print the metric dictionary (METRICS.md) and exit")
	flag.Parse()
	if *dict {
		writeDictionary(os.Stdout)
		return
	}
	opt.trace = *trace == 1
	opt.out = os.Stdout
	res, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// run executes one invocation and returns its result line. Any wrong
// answer is an error: the caller exits non-zero without a result.
func run(opt options) (*result, error) {
	wd, ok := workloadByName(opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	b := &bench{opt: opt, shape: fullShape, stateDir: filepath.Join(opt.root, ".bench_build")}
	if opt.smoke {
		b.shape = smokeShape
	}
	b.sharded = opt.workload == "drill_sharded" || opt.workload == "session_sharded"
	b.runDir = filepath.Join(b.stateDir, "run", fmt.Sprintf("%d", os.Getpid()))
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.runDir)
	defer b.closeTopo()
	if opt.trace {
		b.tracer = newTracer()
	}
	if err := wd.Run(b); err != nil {
		return nil, err
	}
	if len(b.mismatches) > 0 {
		for i, m := range b.mismatches {
			if i == 10 {
				fmt.Fprintf(os.Stderr, "... %d more\n", len(b.mismatches)-10)
				break
			}
			fmt.Fprintln(os.Stderr, "mismatch:", m)
		}
		return nil, fmt.Errorf("%w: %d wrong answers", errMismatch, len(b.mismatches))
	}
	return b.result()
}

// result assembles the result line from the measured metrics and prints
// every metric by name, unit and sample count.
func (b *bench) result() (*result, error) {
	res := &result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no requests attempted")
	}
	b.metric("failed_frac", float64(b.failed)/float64(b.attempted), b.attempted)
	names := make([]string, 0, len(b.values))
	for n := range b.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d, _ := defByName(n)
		v := b.values[n]
		fmt.Fprintf(b.opt.out, "metric %-30s %14.6f %-6s n=%d\n", n, v.value, d.Unit, v.n)
	}
	for _, n := range ledgerNames(b.opt.trace) {
		v, ok := b.values[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return nil, fmt.Errorf("metric %s is %v", n, v.value)
		}
		d, _ := defByName(n)
		res.Metrics[n] = metric{Value: v.value, Unit: d.Unit}
	}
	return res, nil
}

// metric records one measured value with its sample count.
func (b *bench) metric(name string, v float64, n int) {
	if _, ok := defByName(name); !ok {
		panic("undeclared metric " + name)
	}
	if b.values == nil {
		b.values = map[string]measured{}
	}
	b.values[name] = measured{value: v, n: n}
}

type measured struct {
	value float64
	n     int
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.opt.out, "# "+format+"\n", args...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
