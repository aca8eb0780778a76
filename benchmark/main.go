// Command benchmark is the repository's end-to-end benchmark of the
// live data plane: four named closed-loop workloads, the end-to-end
// metrics a player or a fleet operator feels, and a traced stage replay
// that attributes a frame to the layers it crosses. See README.md.
//
//	go run ./benchmark [-workload name] [-seed n] [-seconds s] [-trace] [-selfcheck]
//
// With -workload the named workload runs in this process and the last
// line of standard output is one JSON object (the form BENCHMARK.json's
// driver reads). Without it every workload runs, each in a fresh child
// process.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

// failFloorPSNR fails a run whose worst displayed frame is further than
// this from local rendering.
const failFloorPSNR = 28.0

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

// joinTraceArg rewrites "-trace 0|1" (the driver's spelling) into
// "-trace=0|1", which is the only form the flag package takes a boolean
// value in; a bare -trace keeps meaning true.
func joinTraceArg(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload, in this process (default: all, each in a child process)")
	seed := fs.Uint64("seed", 1, "roots every player and link seed")
	seconds := fs.Float64("seconds", 0, "measure for this long instead of the workload's fixed frame count")
	trace := fs.Bool("trace", false, "do the traced run that yields the per-layer metrics")
	selfcheck := fs.Bool("selfcheck", false, "run the whole set twice and fail if the two disagree by more than a metric's bound")
	outDir := fs.String("out", "benchmark/out", "directory for results.jsonl and trace-<workload>.jsonl")
	if err := fs.Parse(joinTraceArg(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *name == "" {
		return runAll(stdout, *seed, *seconds, *trace, *selfcheck, *outDir)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	warmHost()
	rep, err := run(runOpts{w: w, seed: *seed, seconds: *seconds, trace: *trace, outDir: *outDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
		return 1
	}
	rep.print(stdout)
	if !rep.Correct {
		return 1
	}
	return 0
}

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a workload run ends its output with.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes every metric of the run by name with its unit, the
// output checks, and last the result line.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d trace=%t: frames attempted=%d displayed=%d failed=%d (failed_frame_share %.4f), %d latency samples\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Attempted, rep.Displayed, rep.Failed,
		float64(rep.Failed)/float64(rep.Attempted), rep.Displayed)
	defs, values := endToEnd, rep.EndToEnd
	if rep.Trace {
		defs, values = perLayer, rep.PerLayer
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		fmt.Fprintf(w, "%-36s %14.4f %s\n", d.Name, values[d.Name], d.Unit)
		line.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	for _, c := range rep.Checks {
		fmt.Fprintln(w, "check:", c)
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	out, _ := json.Marshal(line) // a map of plain numbers cannot fail to marshal
	fmt.Fprintf(w, "%s\n", out)
}

// runChild runs one workload in a fresh process (this executable again)
// so set-up time, peak RSS and CPU are the workload's own. The child's
// output is passed through; its last line is the result.
func runChild(stdout io.Writer, name string, seed uint64, seconds float64, trace bool, outDir string) (resultLine, error) {
	var res resultLine
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		fmt.Sprintf("-trace=%t", trace), "-out", outDir)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if stdout != nil && !strings.HasPrefix(last, "{") {
			fmt.Fprintln(stdout, last)
		}
	}
	werr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if werr != nil {
			return res, fmt.Errorf("%s: %w", name, werr)
		}
		return res, fmt.Errorf("%s: no result line: %w", name, err)
	}
	if werr != nil {
		return res, fmt.Errorf("%s: %w (correct=%t)", name, werr, res.Correct)
	}
	return res, nil
}

// runAll runs every workload, each in its own child process, after one
// discarded warm-up run (the first run after a build is the slow one).
func runAll(stdout io.Writer, seed uint64, seconds float64, trace, selfcheck bool, outDir string) int {
	if _, err := runChild(nil, "solo-static", seed, 2, false, outDir); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: warm-up: %v\n", err)
		return 1
	}
	sets := 1
	if selfcheck {
		sets, trace = 2, false
	}
	results := make([]map[string]resultLine, sets)
	for s := range results {
		results[s] = make(map[string]resultLine)
		for _, w := range workloads {
			res, err := runChild(stdout, w.Name, seed, seconds, trace, outDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 1
			}
			results[s][w.Name] = res
		}
	}
	if !selfcheck {
		return 0
	}
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := results[0][w.Name].Metrics[d.Name].Value, results[1][w.Name].Metrics[d.Name].Value
			allowed := math.Max(d.Bound*math.Abs(a), d.Floor)
			verdict := "ok"
			if math.Abs(a-b) > allowed {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(stdout, "selfcheck %-12s %-26s %12.4f %12.4f %s  (allowed %.4f) %s\n", w.Name, d.Name, a, b, d.Unit, allowed, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "selfcheck: %d metric(s) differ between two sets of runs by more than their bound\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: the two sets agree within every bound")
	return 0
}
