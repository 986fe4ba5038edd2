// Command lpvsbench is the LPVS service benchmark. It starts the edge
// daemon — or a router in front of three shard members — in its own
// process on loopback listeners, drives it through the real device
// client and binary report codec, checks the outputs, and prints every
// metric by name, with its unit and sample count. The last line of
// standard output is one JSON object with the run's verdict and the
// metrics BENCHMARK.json lists: the end-to-end metrics, or with
// -trace 1 the per-layer metrics of a traced run.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload edge-slot --seed 1 --seconds 30 --trace 0
//
// Workloads: edge-slot, report-stream, federated (see README.md).
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// config sizes one run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool

	conns    int // load-generator connections and in-flight requests
	devices  int
	batch    int // reports per binary batch
	channels int
	setups   int // set-ups per run; setup_s is their median
	hardStop time.Duration

	// closed loops
	slots       int // timed slots per run
	digestSlots int
	// golden compares the digest with golden.json, which holds digests
	// of the standard sizes only.
	golden       bool
	reshardEvery int

	// open loop
	rates        []float64 // reports per second, one phase each
	tickEvery    time.Duration
	latencyLimit time.Duration // a report slower than this is not goodput
	lateLimit    time.Duration // generator lateness p99 beyond this voids the run
}

func workloadConfig(workload string, seed int64, seconds time.Duration, trace bool) (config, error) {
	cfg := config{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		conns:    min(2, runtime.NumCPU()),
		batch:    750,
		channels: len(channelIDs),
		setups:   11,
		hardStop: 150 * time.Second,
	}
	switch workload {
	case "edge-slot", "federated":
		// A run plays a fixed number of slots, sized so it lasts about
		// the requested time on a 2-core host: edge-slot plays about 9
		// slots a second there, federated about 5. At least 100.
		perSec := 9.0
		if workload == "federated" {
			perSec = 5
		}
		cfg.devices = 3000
		cfg.slots = max(100, int(perSec*seconds.Seconds()+0.5))
		cfg.digestSlots = 100
		cfg.golden = true
		cfg.reshardEvery = 25
	case "report-stream":
		cfg.devices = 20000
		cfg.rates = []float64{1000, 2500}
		cfg.tickEvery = 500 * time.Millisecond
		cfg.latencyLimit = 25 * time.Millisecond
		cfg.lateLimit = 10 * time.Millisecond
	default:
		return cfg, fmt.Errorf("unknown workload %q (edge-slot, report-stream, federated)", workload)
	}
	return cfg, nil
}

// result is one run's verdict and numbers.
type result struct {
	attempted, failed int
	problems          []string
	e2e, layer        metricSet
	notes             []string
}

//go:embed golden.json
var goldenJSON []byte

// golden holds the recorded decision digests: workload -> seed -> hex.
func golden() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	return g, json.Unmarshal(goldenJSON, &g)
}

func main() {
	workload := flag.String("workload", "edge-slot", "workload: edge-slot, report-stream or federated")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	root := flag.String("root", ".", "repository root (holds BENCHMARK.json; trace files go to .bench_build/)")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "lpvsbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*workload, *seed, *seconds, *traceFlag == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "lpvsbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace bool, root string) error {
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	listed, err := listedMetrics(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	cfg, err := workloadConfig(workload, seed, time.Duration(seconds)*time.Second, trace)
	if err != nil {
		return err
	}
	st := newStamp(root, cfg)
	env, _ := json.Marshal(st) // a struct of strings and numbers always encodes
	fmt.Printf("lpvsbench %s seed=%d seconds=%d trace=%v\nenv %s\n", workload, seed, seconds, trace, env)

	var tr *tracer
	if trace {
		tr = newTracer()
	}
	var res result
	if workload == "report-stream" {
		res, err = runStream(cfg, tr)
	} else {
		res, err = runClosed(cfg, tr)
	}
	if err != nil {
		return err
	}
	if tr != nil {
		// One file per workload, overwritten by the next traced run:
		// a traced closed-loop run writes tens of megabytes.
		path := filepath.Join(root, ".bench_build", "trace", workload+".jsonl")
		if err := tr.writeJSONL(path, st); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		res.notes = append(res.notes, "spans written to "+path)
	}

	fmt.Println("end-to-end:")
	printMetrics(res.e2e)
	if trace {
		fmt.Println("per-layer:")
		printMetrics(res.layer)
	}
	for _, n := range res.notes {
		fmt.Println(n)
	}
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED:", p)
	}

	want, set := listed.endToEnd, res.e2e
	if trace {
		want, set = listed.perLayer, res.layer
	}
	out := map[string]any{}
	for _, name := range want {
		m, ok := set.get(name)
		if !ok || m.N == 0 {
			return fmt.Errorf("metric %s listed in BENCHMARK.json was not measured", name)
		}
		out[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printMetrics prints one metric a line with unit and sample count;
// a percentile with fewer than ten samples beyond it is flagged.
func printMetrics(s metricSet) {
	for _, m := range s.list {
		if m.N == 0 {
			fmt.Printf("  %-34s %14s\n", m.Name, "-")
			continue
		}
		flag := ""
		if !m.Enough {
			flag = "  (fewer than 10 samples beyond)"
		}
		fmt.Printf("  %-34s %14s %-6s n=%d%s\n", m.Name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, m.N, flag)
	}
}

// listed is the metric names BENCHMARK.json declares.
type listed struct{ endToEnd, perLayer []string }

func listedMetrics(path string) (listed, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return listed{}, err
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return listed{}, fmt.Errorf("%s: %w", path, err)
	}
	var l listed
	for _, m := range spec.EndToEnd {
		l.endToEnd = append(l.endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		l.perLayer = append(l.perLayer, m.Name)
	}
	return l, nil
}

// setupTimes runs setup cfg.setups times and keeps the last system;
// setup_s is the median of the set-up times.
func setupTimes[T interface{ close() }](cfg config, setup func() (T, error)) (T, float64, error) {
	var keep T
	var times []float64
	for i := 0; i < cfg.setups; i++ {
		start := time.Now()
		x, err := setup()
		if err != nil {
			return keep, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < cfg.setups-1 {
			x.close()
			runtime.GC()
			continue
		}
		keep = x
	}
	return keep, median(times), nil
}
