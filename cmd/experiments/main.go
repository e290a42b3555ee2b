// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated platforms.
//
// Usage:
//
//	experiments [-scale tiny|small|medium|full] [-seed N] [-run LIST] [-out FILE]
//
// -run selects experiments (comma separated: table1, table2, table3,
// table4, fig3, fig4, or "all"). Six extra studies run only when named
// explicitly: "ablations" (design-choice quantification), "faults" (the
// fault-injection recovery sweep), "trace" (an instrumented System 1
// run whose Chrome trace -trace-out writes for chrome://tracing or
// Perfetto), "index" (the artifact load-vs-rebuild measurement;
// -index-out writes its JSON, see BENCH_index.json), "prefilter" (the
// pre-alignment filter ablation; -prefilter-out writes its JSON, see
// BENCH_prefilter.json) and "serve" (the mapping-service load sweep: M
// concurrent clients against a live server, p50/p99 job latency and
// saturation throughput; -serve-out writes its JSON, see
// BENCH_serve.json). -out writes the full markdown report
// (EXPERIMENTS.md form) in addition to the console tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	scaleFlag := flag.String("scale", "small", "workload scale: tiny, small, medium, full")
	seedFlag := flag.Int64("seed", 1, "dataset generation seed")
	runFlag := flag.String("run", "all", "experiments to run (comma list or 'all')")
	outFlag := flag.String("out", "", "also write a full markdown report to this file")
	jsonFlag := flag.String("json", "", "also write the full report as JSON to this file (requires -run all)")
	traceOutFlag := flag.String("trace-out", "trace.json", "Chrome trace output path for -run trace")
	indexOutFlag := flag.String("index-out", "", "JSON output path for -run index (e.g. BENCH_index.json)")
	prefilterOutFlag := flag.String("prefilter-out", "", "JSON output path for -run prefilter (e.g. BENCH_prefilter.json)")
	serveOutFlag := flag.String("serve-out", "", "JSON output path for -run serve (e.g. BENCH_serve.json)")
	flag.Parse()

	if err := run(*scaleFlag, *seedFlag, *runFlag, *outFlag, *jsonFlag, *traceOutFlag, *indexOutFlag, *prefilterOutFlag, *serveOutFlag); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(scaleName string, seed int64, runList, outPath, jsonPath, traceOut, indexOut, prefilterOut, serveOut string) error {
	sc, err := bench.ScaleByName(scaleName)
	if err != nil {
		return err
	}
	want := map[string]bool{}
	for _, item := range strings.Split(runList, ",") {
		want[strings.TrimSpace(strings.ToLower(item))] = true
	}
	all := want["all"]
	sel := func(name string) bool { return all || want[name] }

	if (outPath != "" || jsonPath != "") && !all {
		return fmt.Errorf("-out/-json require -run all (the report covers every experiment)")
	}

	if all {
		fmt.Printf("running all experiments at scale %q (ref %d bp, %d reads/set)...\n",
			sc.Name, sc.RefLen, sc.ReadsPerSet)
		report, err := bench.RunAll(sc, seed)
		if err != nil {
			return err
		}
		report.T1.Render(os.Stdout)
		fmt.Println()
		report.T2.Render(os.Stdout)
		fmt.Println()
		report.T3.Render(os.Stdout)
		fmt.Println()
		report.T4.Render(os.Stdout)
		fmt.Println()
		report.F3.Render(os.Stdout)
		fmt.Println()
		report.F4.Render(os.Stdout)
		fmt.Println()
		bench.RenderChecks(os.Stdout, bench.CheckShapes(
			report.T1, report.T2, report.T3, report.T4, report.F3, report.F4))
		if outPath != "" {
			f, err := os.Create(outPath)
			if err != nil {
				return err
			}
			report.WriteMarkdown(f)
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("\nwrote markdown report to %s\n", outPath)
		}
		if jsonPath != "" {
			if err := bench.WriteJSONFile(jsonPath, report); err != nil {
				return err
			}
			fmt.Printf("wrote JSON report to %s\n", jsonPath)
		}
		return nil
	}

	ds, err := bench.BuildDataset(sc, seed)
	if err != nil {
		return err
	}
	ran := false
	if sel("table1") {
		t, err := bench.Table1(ds)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		ran = true
	}
	if sel("table2") {
		t, err := bench.Table2(ds)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		ran = true
	}
	if sel("table3") {
		t, err := bench.Table3(ds)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		ran = true
	}
	if sel("table4") {
		t, err := bench.Table4(ds)
		if err != nil {
			return err
		}
		t.Render(os.Stdout)
		ran = true
	}
	if sel("fig3") {
		s, err := bench.RunFig3(ds)
		if err != nil {
			return err
		}
		s.Render(os.Stdout)
		ran = true
	}
	if sel("fig4") {
		s, err := bench.RunFig4(ds)
		if err != nil {
			return err
		}
		s.Render(os.Stdout)
		ran = true
	}
	if sel("ablations") {
		a, err := bench.RunAblations(ds)
		if err != nil {
			return err
		}
		a.Render(os.Stdout)
		ran = true
	}
	if sel("faults") {
		s, err := bench.RunFaultSweep(ds)
		if err != nil {
			return err
		}
		s.Render(os.Stdout)
		ran = true
	}
	if sel("index") {
		b, err := bench.RunIndexBench(ds)
		if err != nil {
			return err
		}
		b.Render(os.Stdout)
		if indexOut != "" {
			if err := bench.WriteJSONFile(indexOut, b); err != nil {
				return err
			}
			fmt.Printf("wrote index benchmark JSON to %s\n", indexOut)
		}
		ran = true
	}
	if sel("prefilter") {
		b, err := bench.RunPrefilterBench(ds)
		if err != nil {
			return err
		}
		b.Render(os.Stdout)
		if prefilterOut != "" {
			if err := bench.WriteJSONFile(prefilterOut, b); err != nil {
				return err
			}
			fmt.Printf("wrote prefilter ablation JSON to %s\n", prefilterOut)
		}
		ran = true
	}
	if sel("serve") {
		b, err := bench.RunServeBench(ds)
		if err != nil {
			return err
		}
		b.Render(os.Stdout)
		if serveOut != "" {
			if err := bench.WriteJSONFile(serveOut, b); err != nil {
				return err
			}
			fmt.Printf("wrote serve load-sweep JSON to %s\n", serveOut)
		}
		ran = true
	}
	if sel("trace") {
		d, err := bench.RunTraceDemo(ds)
		if err != nil {
			return err
		}
		d.Render(os.Stdout)
		if err := os.WriteFile(traceOut, d.ChromeJSON, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", traceOut)
		fmt.Printf("metrics snapshot:\n%s", d.MetricsJSON)
		ran = true
	}
	if !ran {
		return fmt.Errorf("nothing selected by -run %q", runList)
	}
	return nil
}
