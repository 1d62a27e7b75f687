// Command perfbench is the repository's benchmark. It generates one
// workload from a seed, drives the LEMP server and bulk engine only
// through their public entry points, checks the outputs, and prints its
// metrics, ending with one JSON result line:
//
//	bash perfbench/run.sh --workload serve-topk --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with lemp-serve's default
// trace sampling. --trace 1 splits the time between an untraced pass and
// a traced pass and reports the per-layer breakdown of the traced one.
// See README.md for the workloads and metrics.
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
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // directory for generated files, removed at exit
	root     string // repository root, for the reproducibility record
	tiny     bool   // shrink every size (the self-test)
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"serve-topk":  serveTopK,
	"bulk-topk":   bulkTopK,
	"serve-mixed": serveMixed,
}

func main() {
	// Run from the repository root (run.sh does).
	cfg := config{root: "."}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-topk, bulk-topk or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every input derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds (set-up, warm-up and checks excluded)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for generated inputs and outputs")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fail("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	res, err := execute(cfg, os.Stdout)
	if err != nil {
		fail("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail("%v", err)
	}
	fmt.Println(string(line))
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state of one benchmark run, shared by the workload functions.
type run struct {
	config
	out io.Writer

	attempted int64 // operations sent (requests, bulk jobs)
	failed    int64 // non-200 responses, transport errors, check mismatches
	checked   int64 // outputs compared against a reference
	mismatch  int64 // outputs that differed from their reference

	e2e   map[string]float64
	layer map[string]float64
}

// execute runs one workload and returns its result line.
func execute(cfg config, out io.Writer) (*result, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want serve-topk, bulk-topk or serve-mixed)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workdir = dir

	r := &run{config: cfg, out: out, e2e: map[string]float64{}, layer: map[string]float64{}}
	r.printEnv()
	if err := drive(r); err != nil {
		return nil, err
	}
	r.note("fail_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", int(r.attempted))
	r.note("checked_outputs", float64(r.checked), "count", 0)
	res := &result{
		Correct:   r.checked > 0 && r.mismatch == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	if cfg.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{r.layer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v := r.e2e[m.name]
			if v <= 0 {
				// Nothing succeeded to measure it: the run is not valid.
				fmt.Fprintf(os.Stderr, "perfbench: %s has no successful samples\n", m.name)
				res.Correct = false
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	return res, nil
}

// note prints one measured value as a report line: name, value, unit and
// the number of samples behind it (0 when it is not a sample statistic).
func (r *run) note(name string, v float64, unit string, n int) {
	if n > 0 {
		fmt.Fprintf(r.out, "%-36s %14.6g %-6s n=%d\n", name, v, unit, n)
	} else {
		fmt.Fprintf(r.out, "%-36s %14.6g %s\n", name, v, unit)
	}
}

// setE2E records an end-to-end metric and prints it.
func (r *run) setE2E(name string, v float64, n int) {
	r.e2e[name] = v
	r.note(name, v, unitOf(name), n)
}

// setLayer records a per-layer metric and prints it with the end-to-end
// metric it should move.
func (r *run) setLayer(name string, v float64) {
	r.layer[name] = v
	for _, m := range perLayer {
		if m.name == name {
			fmt.Fprintf(r.out, "%-36s %14.6g %-6s moves %s\n", name, v, m.unit, m.moves)
			return
		}
	}
	panic("perfbench: metric " + name + " is not catalogued")
}

// section prints a report heading.
func (r *run) section(format string, args ...any) {
	fmt.Fprintf(r.out, "# "+format+"\n", args...)
}

// printEnv prints the reproducibility record every result carries.
func (r *run) printEnv() {
	r.section("workload=%s seed=%d seconds=%g trace=%v", r.workload, r.seed, r.seconds, r.trace)
	r.section("env gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s source_sha256=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), gitCommit(r.root), sourceHash(r.root))
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

// gitCommit returns the commit of root when root is the top of a git
// work tree, else "none" (a source export has no history).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash fingerprints the Go sources and module files under root, so
// a result can be tied to its code even without a commit.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Sample statistics.

// percentile returns the nearest-rank p-quantile (p in [0,1]) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mb(bytes float64) float64 { return bytes / 1e6 }

// cpuTime returns the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return mb(float64(m.HeapAlloc))
}
