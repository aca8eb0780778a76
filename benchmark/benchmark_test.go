package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tiny shrinks a workload to a seconds-long smoke: a handful of frames,
// two segments, and a fleet small enough to set up instantly.
func tiny(w workload) workload {
	w.Frames, w.VerifyFrames, w.Setups = 6, 3, 2
	if w.Sessions > 8 {
		w.Sessions = 8
	}
	return w
}

// TestWorkloadsSmoke runs all four workloads, untraced and traced, and
// holds the harness to its contract: nothing fails, the output checks
// pass, every metric BENCHMARK.json names is emitted with its unit, and
// the result is the last line printed.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				rep, err := run(runOpts{w: tiny(w), seed: 3, trace: trace, outDir: out})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d problems=%v", rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
				}
				var buf bytes.Buffer
				rep.print(&buf)
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s: got %+v (present=%t), want a finite value in %s", d.Name, m, ok, d.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if _, err := os.Stat(filepath.Join(out, "results.jsonl")); err != nil {
					t.Errorf("no results ledger: %v", err)
				}
				if trace {
					spans, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".jsonl"))
					if err != nil {
						t.Fatal(err)
					}
					for _, stage := range []string{`"frame"`, `"gles.execute"`, `"core.server_handle"`, `"turbo.decode"`} {
						if !bytes.Contains(spans, []byte(stage)) {
							t.Errorf("span file has no %s span", stage)
						}
					}
				}
			})
		}
	}
}

// TestIdentityCheckFires tampers with one displayed frame's hash and
// expects the stage replay to flag exactly that frame.
func TestIdentityCheckFires(t *testing.T) {
	w, _ := workloadByName("solo-static")
	w = tiny(w)
	tr := newTracer()
	lf, live, err := traceLive(tr, w, 5, w.VerifyFrames)
	if err != nil || live.failed != 0 {
		t.Fatalf("traceLive: %v, failed=%d", err, live.failed)
	}
	lf.hashes[0][2] ^= 1
	counts, err := replayTracked(tr, w, 5, w.VerifyFrames, 0, lf)
	if err != nil {
		t.Fatal(err)
	}
	if counts.mismatched != 1 || !strings.Contains(counts.firstProblem, "frame 2") {
		t.Fatalf("mismatched=%d problem=%q, want the tampered frame 2 flagged", counts.mismatched, counts.firstProblem)
	}
	if counts.forked != 0 || counts.frames != w.VerifyFrames {
		t.Fatalf("forked=%d frames=%d", counts.forked, counts.frames)
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the tables in this
// package: same workloads, same metrics, units and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, file.Workloads[i].Name, w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
}

func TestJoinTraceArg(t *testing.T) {
	got := joinTraceArg([]string{"--workload", "solo-wifi", "--seed", "7", "--seconds", "20", "--trace", "1"})
	want := []string{"--workload", "solo-wifi", "--seed", "7", "--seconds", "20", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := joinTraceArg([]string{"-trace", "-selfcheck"}); !reflect.DeepEqual(got, []string{"-trace", "-selfcheck"}) {
		t.Errorf("bare -trace rewritten: %v", got)
	}
}
