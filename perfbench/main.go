// Command perfbench is the repository benchmark. It runs one workload
// against a built `repute` binary and prints every metric by name and
// unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload map-dp --seed 1 --seconds 20 --trace 0
//
// run.sh builds `repute` and this harness from the checkout it is run
// in. With --trace 0 the harness measures the end-to-end metrics of
// BENCHMARK.json (subprocesses, wall clock, no tracing); with --trace 1
// it replays the workload's reads in process through the layer
// functions with spans around each call and reports the per-layer
// metrics. README.md says why each workload exists.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/simulate"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of repute sees, measured with tracing
// off on every workload.
var endToEnd = []metricDef{
	{"reads_per_s", "reads/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"sim_seconds", "sim_s", "lower"},
	{"sensitivity_pct", "%", "higher"},
	{"success_pct", "%", "higher"},
	{"job_latency_p50_s", "s", "lower"},
	{"job_latency_p90_s", "s", "lower"},
}

// perLayer are the traced run's metrics, one group per repo module. A
// layer the workload bypasses reports zero work and zero time.
var perLayer = []metricDef{
	{"seed.select_ns_per_read", "ns", "lower"},
	{"seed.fm_steps_per_read", "count", "lower"},
	{"seed.ns_per_fm_step", "ns", "lower"},
	{"seed.dp_cells_per_read", "count", "lower"},
	{"seed.allocs_per_read", "count", "lower"},
	{"fmindex.locate_ns_per_read", "ns", "lower"},
	{"fmindex.located_per_read", "count", "lower"},
	{"mapper.dedup_ns_per_read", "ns", "lower"},
	{"mapper.candidates_per_read", "count", "lower"},
	{"mapper.finalize_ns_per_read", "ns", "lower"},
	{"verify.ns_per_read", "ns", "lower"},
	{"verify.ns_per_candidate", "ns", "lower"},
	{"verify.words_per_read", "count", "lower"},
	{"verify.allocs_per_read", "count", "lower"},
	{"verify.bytes_per_read", "B", "lower"},
	{"verify.match_frac", "ratio", "higher"},
	{"filter.ns_per_read", "ns", "lower"},
	{"filter.words_per_read", "count", "lower"},
	{"filter.reject_frac", "ratio", "higher"},
	{"filter.false_accept_frac", "ratio", "lower"},
	{"fastx.scan_ns_per_read", "ns", "lower"},
	{"sam.write_ns_per_read", "ns", "lower"},
	{"sam.bytes_per_read", "B", "lower"},
	{"checkpoint.save_ms_p50", "ms", "lower"},
	{"checkpoint.saves", "count", "lower"},
	{"index.load_s", "s", "lower"},
	{"core.map_ns_per_read", "ns", "lower"},
	{"core.parallel_speedup", "ratio", "higher"},
	{"cl.dispatch_overhead_frac", "ratio", "lower"},
	{"serve.submit_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.run_ms_p50", "ms", "lower"},
	{"serve.sam_fetch_ms_p50", "ms", "lower"},
	{"serve.refused_429", "count", "lower"},
	{"serve.queue_depth_max", "count", "lower"},
	{"runtime.alloc_bytes_per_read", "B", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// Reference shared by every workload: a chr21-like 4 Mbp sequence. Its
// full-SA index artifact (18.5 MB) outgrows a core's L2 but fits the
// shared L3, as the paper's chr21 index does on its platforms relative
// to their caches. It does not depend on the workload seed.
const (
	refLen  = 4_000_000
	refSeed = 21
)

// mapSpec is one `repute map` workload: the reads it generates and the
// CLI options it maps them with. The traced replay derives its
// in-process options from the same fields.
type mapSpec struct {
	profile   simulate.ReadProfile
	reads     int // reads per `repute map` run (about 1.5 s of mapping)
	errors    int
	selector  string // dp or coral
	prefilter string // off or gatekeeper
	platform  string
	batch     int
}

func (s mapSpec) args(index, reads, ckpt, out string) []string {
	return []string{"map", "-index", index, "-reads", reads,
		"-e", fmt.Sprint(s.errors), "-selector", s.selector, "-prefilter", s.prefilter,
		"-platform", s.platform, "-batch", fmt.Sprint(s.batch),
		"-checkpoint", ckpt, "-out", out}
}

// serveSpec is the `repute serve` open-loop workload.
type serveSpec struct {
	profile  simulate.ReadProfile
	jobReads int     // reads per job
	rate     float64 // scheduled job arrivals per second
	errors   int     // the server's default δ
	platform string
}

var mapWorkloads = map[string]mapSpec{
	"map-dp": {profile: simulate.ERR012100, reads: 2000, errors: 4, selector: "dp",
		prefilter: "off", platform: "system1-cpu", batch: 512},
	"map-coral-gk": {profile: simulate.SRR826460, reads: 4000, errors: 6, selector: "coral",
		prefilter: "gatekeeper", platform: "system1-cpu", batch: 512},
}

// serve-open runs at 5 jobs/s, about a fifth of the closed-loop capacity
// with two clients (about 23 jobs/s). At 10 jobs/s, half of capacity,
// its p90 latency varied by more than half of its median from run to run
// on a 2-vCPU host: three concurrent CPU-bound jobs there amplify every
// slow second of the machine into a queue. README.md has the figures.
var serveWorkloads = map[string]serveSpec{
	"serve-open": {profile: simulate.ERR012100, jobReads: 50, rate: 5, errors: 5, platform: "system1"},
}

// result is one run's outcome: the metrics by name plus the operation
// tallies. An operation that did not complete (a nonzero exit, a
// refused, failed or unfinished job) is a miss: it counts in failed.
// An output that is wrong (a SAM that differs, a replay that does not
// match) or a run that is invalid also clears correct.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string // human-readable detail printed before the metrics
}

func newResult() *result { return &result{correct: true, metrics: map[string]float64{}} }

// fail records a failed output check; it never aborts the run.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.correct = false
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// miss records an operation that did not complete.
func (r *result) miss(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: operation failed: "+format+"\n", args...)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// env is what every workload runner needs: the binary, a scratch
// directory inside the checkout, and the run parameters.
type env struct {
	root    string // checkout root
	repute  string // built repute binary
	work    string // per-run scratch directory, removed at exit
	seed    int64
	seconds time.Duration
	ref     []byte // reference base codes
	index   string
}

func main() {
	workload := flag.String("workload", "", "workload name: map-dp, map-coral-gk or serve-open")
	seedFlag := flag.Int64("seed", 1, "workload seed: the reads and the arrival schedule derive from it")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	traceFlag := flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced in-process run with per-layer metrics")
	reputeBin := flag.String("repute", "", "path of the built repute binary (required)")
	root := flag.String("root", ".", "checkout root; scratch files go under its .bench_build directory")
	flag.Parse()
	if err := run(*workload, *seedFlag, *seconds, *traceFlag, *reputeBin, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, traceMode int, reputeBin, root string) error {
	ms, isMap := mapWorkloads[workload]
	ss, isServe := serveWorkloads[workload]
	switch {
	case !isMap && !isServe:
		return fmt.Errorf("unknown workload %q (map-dp, map-coral-gk, serve-open)", workload)
	case reputeBin == "":
		return fmt.Errorf("-repute is required")
	case seconds < 1:
		return fmt.Errorf("-seconds must be ≥ 1")
	case traceMode != 0 && traceMode != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	if reputeBin, err = filepath.Abs(reputeBin); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	e := &env{root: root, repute: reputeBin, work: work, seed: seed,
		seconds: time.Duration(seconds) * time.Second}
	fmt.Println(stamp(root, workload, seed, seconds, traceMode))
	if err := e.setupReference(); err != nil {
		return err
	}

	var res *result
	switch {
	case isMap && traceMode == 0:
		res, err = runMap(e, ms)
	case isMap:
		res, err = traceMap(e, workload, ms)
	case traceMode == 0:
		res, err = runServe(e, ss)
	default:
		res, err = traceServe(e, workload, ss)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if traceMode == 1 {
		defs = perLayer
	}
	return printResult(res, defs)
}

// printResult prints the notes and every metric by name and unit, then
// the JSON result as the last line of standard output.
func printResult(res *result, defs []metricDef) error {
	for _, n := range res.notes {
		fmt.Println(n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Printf("%-30s %16.6g %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = value{v, d.Unit}
	}
	if res.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// stamp describes the run and the machine so results can be compared
// with their context: seed, CPU count, GOMAXPROCS, Go version, CPU
// model, git commit, and a digest of the Go sources and go.mod files the
// binaries were built from (the commit is unknown outside a git work
// tree; the digest identifies the code either way).
func stamp(root, workload string, seed int64, seconds, traceMode int) string {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s source=%s",
		workload, seed, seconds, traceMode, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), cpuModel(), commit, sourceDigest(root))
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

// sourceDigest hashes every .go and go.mod file under root, skipping
// dot directories, in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:6])
}

// samDigest is a short content hash for SAM byte-identity reports.
func samDigest(b []byte) string {
	s := sha256.Sum256(b)
	return fmt.Sprintf("%x", s[:8])
}
