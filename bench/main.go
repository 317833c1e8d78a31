// Command sapbench is the program-level benchmark of the SAP reproduction. It
// drives the real system from outside, in one process: serving goes through
// the sap facade over loopback TCP with AES-GCM frames (the stack sapnode
// runs), and session runs go through sap.Run. For each workload it prints
// every end-to-end metric with its unit and request counts, checks that
// outputs are correct, and ends with one JSON result line. A traced run
// (-trace 1) reports per-layer metrics instead. See README.md.
//
//	sapbench -workload classify-single -seed 3 -seconds 20 -trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

const (
	warmup = 2 * time.Second
	setups = 5
	// spareTime bounds everything a run does besides its measured and
	// warm-up time (set-ups, checks, draining), so a wedged system ends the
	// run instead of hanging it.
	spareTime = 60 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sapbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	only := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 20, "measured seconds per workload")
	traceArg := fs.String("trace", "0", "1 runs the workload untraced, then traced, and reports per-layer metrics; a file path does the same and writes the spans there")
	out := fs.String("out", "", "append each workload's result, tagged with workload, seed and trace, as a JSON line to this file")
	summarize := fs.Bool("summarize", false, "summarize the -out files given as arguments: median, quartiles and spread per workload and metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarize {
		if err := summarizeFiles(fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "sapbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "sapbench: -seconds must be at least 1")
		return 2
	}
	selected := workloads
	if *only != "all" {
		selected = nil
		for _, w := range workloads {
			if w.name == *only {
				selected = append(selected, w)
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "sapbench: unknown workload %q (have %s)\n", *only, strings.Join(names, ", "))
			return 2
		}
	}
	traced := *traceArg != "0"
	spanPath := *traceArg
	if spanPath == "1" {
		spanPath = filepath.Join(".bench_build", "spans.jsonl")
	}
	if traced {
		// One span file per invocation; its workloads append to it.
		err := os.MkdirAll(filepath.Dir(spanPath), 0o755)
		if err == nil {
			err = os.WriteFile(spanPath, nil, 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "sapbench:", err)
			return 1
		}
	}
	cfg := runConfig{seed: *seed, measure: time.Duration(*seconds) * time.Second, warmup: warmup, setups: setups}
	code := 0
	for _, w := range selected {
		res, err := runWorkload(w, cfg, traced, spanPath, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "sapbench: %s: %v\n", w.name, err)
			return 1
		}
		if *out != "" {
			if err := appendResult(*out, w.name, *seed, traced, res); err != nil {
				fmt.Fprintln(stderr, "sapbench:", err)
				return 1
			}
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload and prints its report and JSON result line.
// Traced, it runs the workload twice — untraced, then traced — so the
// difference between the two is the tracing overhead.
func runWorkload(w workload, cfg runConfig, traced bool, spanPath string, stdout io.Writer) (result, error) {
	runs := 1
	if traced {
		runs = 2
	}
	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(runs)*(cfg.measure+cfg.warmup+spareTime))
	defer cancel()

	fmt.Fprintf(stdout, "== %s (seed %d, %v measured)\n", w.name, cfg.seed, cfg.measure)
	o, err := w.run(ctx, cfg, nil)
	if err != nil {
		return result{}, err
	}
	printOutcome(stdout, "untraced", o, endToEnd, o.e2e)
	outcomes := []*outcome{o}
	metrics, err := pick(endToEnd, o.e2e)
	if traced {
		tr := newTracer()
		ot, terr := w.run(ctx, cfg, tr)
		if terr != nil {
			return result{}, fmt.Errorf("traced run: %w", terr)
		}
		for _, d := range endToEnd {
			ot.layer["trace.overhead."+d.name+"_pct"] = overheadPct(d, o.e2e[d.name], ot.e2e[d.name])
		}
		printOutcome(stdout, "traced", ot, endToEnd, ot.e2e)
		fmt.Fprintln(stdout, "tracing overhead (traced vs untraced):")
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "  %-22s %+.2f%%\n", d.name, ot.layer["trace.overhead."+d.name+"_pct"])
		}
		printLayers(stdout, ot, tr)
		if werr := tr.writeSpans(spanPath, w.name); werr != nil {
			return result{}, werr
		}
		fmt.Fprintf(stdout, "spans written to %s\n", spanPath)
		outcomes = append(outcomes, ot)
		metrics, err = pick(perLayer, ot.layer)
	}
	if err != nil {
		return result{}, err
	}
	res := result{Correct: true, Metrics: metrics}
	for _, o := range outcomes {
		res.Attempted += o.total.attempted.Load()
		res.Failed += o.total.bad()
		if o.total.bad() > 0 || o.invalid != "" {
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

func printOutcome(w io.Writer, label string, o *outcome, defs []metricDef, values map[string]float64) {
	fmt.Fprintf(w, "-- %s\n", label)
	for _, l := range o.lines {
		fmt.Fprintf(w, "  %s\n", l)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-22s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	a := o.total.attempted.Load()
	fmt.Fprintf(w, "  %-22s %14.6f fraction (%d of %d operations failed or wrong)\n",
		"error_rate", g0(float64(o.total.bad()), float64(a)), o.total.bad(), a)
	for _, p := range o.problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
	if o.invalid != "" {
		fmt.Fprintf(w, "  INVALID RUN: %s\n", o.invalid)
	}
}

func printLayers(w io.Writer, o *outcome, tr *tracer) {
	fmt.Fprintln(w, "per-layer metrics:")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, o.layer[d.name], d.unit)
	}
	self := tr.selfByName()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "mean self time by span:")
	for _, n := range names {
		fmt.Fprintf(w, "  %-26s %12.1f us  (%d spans)\n", n, self[n][0], int(self[n][1]))
	}
}

// record is one -out line.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendResult(path, name string, seed int64, traced bool, res result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(record{Workload: name, Seed: seed, Trace: traced, Result: res})
	if err == nil {
		_, err = fmt.Fprintf(f, "%s\n", line)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// summarizeFiles prints, for every workload and metric in the -out files,
// the run count, median, quartiles and quartile spread: the figures two
// commits are compared by.
func summarizeFiles(paths []string, w io.Writer) error {
	type key struct {
		workload string
		trace    bool
		metric   string
	}
	values := make(map[key][]float64)
	units := make(map[string]string)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return fmt.Errorf("%s: %w", p, err)
			}
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, r.Trace, name}
				values[k] = append(values[k], m.Value)
				units[name] = m.Unit
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	keys := make([]key, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return !a.trace
		}
		return a.metric < b.metric
	})
	fmt.Fprintf(w, "%-16s %-5s %-34s %3s %14s %14s %14s %8s\n", "workload", "trace", "metric", "n", "median", "q1", "q3", "spread")
	for _, k := range keys {
		v := values[k]
		q1, _, q3 := quartiles(v)
		fmt.Fprintf(w, "%-16s %-5t %-34s %3d %14.4f %14.4f %14.4f %7.2f%%  %s\n",
			k.workload, k.trace, k.metric, len(v), median(v), q1, q3, quartileSpread(v)*100, units[k.metric])
	}
	return nil
}
