package main

import (
	"encoding/hex"
	"testing"
	"time"
)

// smallRun plays a few slots of a closed-loop workload at test size
// and returns its decision digest.
func smallRun(t *testing.T, workload string, seed int64) string {
	t.Helper()
	cfg, err := workloadConfig(workload, seed, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.devices, cfg.batch, cfg.channels = 60, 25, 3
	cfg.slots, cfg.digestSlots, cfg.reshardEvery = 4, 4, 2
	cfg.golden = false
	cfg.hardStop = time.Minute
	c, err := setupClosed(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	probe, err := newHostProbe(cfg.conns)
	if err != nil {
		t.Fatal(err)
	}
	defer probe.close()
	if _, err := c.run(probe); err != nil {
		t.Fatal(err)
	}
	if _, _, problems := c.lg.counters(); len(problems) > 0 {
		t.Fatalf("output checks failed: %v", problems)
	}
	if c.digested != cfg.digestSlots {
		t.Fatalf("digest covers %d slots, want %d", c.digested, cfg.digestSlots)
	}
	return hex.EncodeToString(c.digest.Sum(nil))
}

func TestDigestStableForSeedDiffersAcrossSeeds(t *testing.T) {
	for _, wl := range []string{"edge-slot", "federated"} {
		a, b, other := smallRun(t, wl, 1), smallRun(t, wl, 1), smallRun(t, wl, 2)
		if a != b {
			t.Errorf("%s: seed 1 digests differ across runs: %s vs %s", wl, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", wl, a)
		}
	}
}
