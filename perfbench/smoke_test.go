package main

import (
	"testing"
	"time"
)

// smallConfig shrinks a workload to test size.
func smallConfig(t *testing.T, workload string) config {
	t.Helper()
	cfg, err := workloadConfig(workload, 3, 2*time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.setups, cfg.channels, cfg.batch = 2, 3, 40
	cfg.slots, cfg.digestSlots, cfg.reshardEvery = 4, 4, 2
	cfg.golden = false
	cfg.devices = 100
	if workload == "report-stream" {
		cfg.devices = 400
		cfg.rates = []float64{100, 200}
		cfg.tickEvery = 250 * time.Millisecond
		cfg.lateLimit = time.Second
	}
	return cfg
}

// TestRunsReportListedMetrics plays every workload at test size,
// untraced and traced, and checks that the output checks pass and
// that every metric BENCHMARK.json lists was measured.
func TestRunsReportListedMetrics(t *testing.T) {
	listed, err := listedMetrics("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"edge-slot", "report-stream", "federated"} {
		for _, traced := range []bool{false, true} {
			cfg := smallConfig(t, wl)
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			var res result
			if wl == "report-stream" {
				res, err = runStream(cfg, tr)
			} else {
				res, err = runClosed(cfg, tr)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			if len(res.problems) > 0 || res.failed > 0 {
				t.Errorf("%s traced=%v: %d failed, problems %v", wl, traced, res.failed, res.problems)
			}
			want, set := listed.endToEnd, res.e2e
			if traced {
				want, set = listed.perLayer, res.layer
			}
			for _, name := range want {
				if m, ok := set.get(name); !ok || m.N == 0 {
					t.Errorf("%s traced=%v: %s not measured", wl, traced, name)
				}
			}
		}
	}
}
