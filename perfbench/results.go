package main

import (
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// ingestStats reads the binary codec's decode time and record count
// from the /metrics of the daemons that ingest reports.
func ingestStats(ds []*daemon) (decodeSec, records float64, err error) {
	hc := &http.Client{Timeout: 30 * time.Second}
	for _, d := range ds {
		resp, err := hc.Get(d.url + "/metrics")
		if err != nil {
			return 0, 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, 0, err
		}
		for _, line := range strings.Split(string(body), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			v, perr := strconv.ParseFloat(val, 64)
			if perr != nil {
				continue
			}
			switch name {
			case `lpvs_ingest_decode_seconds_sum{codec="binary"}`:
				decodeSec += v
			case `lpvs_ingest_records_total{codec="binary"}`:
				records += v
			}
		}
	}
	hc.CloseIdleConnections()
	return decodeSec, records, nil
}

// layerCommon adds the per-layer metrics every workload measures
// outside the spans: decode cost from the daemons' own histogram,
// scrape size, and Go runtime cost per slot.
func layerCommon(m *metricSet, dec0, rec0, dec1, rec1 float64, scrapeMS, scrapeB, series []float64, rt0, rt1 runtimeSample, slots int) {
	m.add("wire.decode_us_per_report", ratio((dec1-dec0)*1e6, rec1-rec0), "us", int(rec1-rec0))
	m.pct("obs.scrape_ms", scrapeMS, 50, "ms")
	m.pct("obs.scrape_bytes", scrapeB, 50, "bytes")
	m.pct("obs.series", series, 50, "count")
	m.add("go.gc_cycles_per_slot", ratio(float64(rt1.gcCycles-rt0.gcCycles), float64(slots)), "count", slots)
	m.add("go.gc_pause_ms", ratio((rt1.gcPauseS-rt0.gcPauseS)*1e3, float64(slots)), "ms", slots)
}

func runClosed(cfg config, tr *tracer) (result, error) {
	c, setupS, err := setupTimes(cfg, func() (*closedLoop, error) { return setupClosed(cfg, tr) })
	if err != nil {
		return result{}, err
	}
	defer c.close()
	dec0, rec0, err := ingestStats(c.sys.servers())
	if err != nil {
		return result{}, err
	}
	probe, err := newHostProbe(cfg.conns)
	if err != nil {
		return result{}, err
	}
	defer probe.close()
	rt0 := readRuntime()
	wall, err := c.run(probe)
	if err != nil {
		return result{}, err
	}
	rt1 := readRuntime()
	dec1, rec1, err := ingestStats(c.sys.servers())
	if err != nil {
		return result{}, err
	}
	c.lg.merged(&c.lat)
	var res result
	res.attempted, res.failed, res.problems = c.lg.counters()

	slots := len(c.lat.cycle)
	devSlots := float64(cfg.devices * slots)
	m := &res.e2e
	m.add("setup_s", setupS, "s", cfg.setups)
	m.pct("slot_cycle_p50_ms", ms(c.lat.cycle), 50, "ms")
	m.pct("slot_cycle_p50_at_ref_ms", probe.atRef(ms(c.lat.cycle)), 50, "ms")
	m.pct("slot_cycle_p90_ms", ms(c.lat.cycle), 90, "ms")
	m.add("device_slots_per_s", devSlots/wall.Seconds(), "1/s", slots)
	m.add("device_slots_per_s_at_ref", ratio(float64(cfg.devices)*1e3, median(probe.atRef(ms(c.lat.slot)))), "1/s", slots)
	m.pct("tick_p50_ms", ms(c.lat.tick), 50, "ms")
	m.pct("tick_p90_ms", ms(c.lat.tick), 90, "ms")
	m.pct("decision_p50_ms", ms(c.lat.decision), 50, "ms")
	m.pct("decision_p99_ms", ms(c.lat.decision), 99, "ms")
	m.pct("report_p50_ms", ms(c.lat.report), 50, "ms")
	m.pct("report_p99_ms", ms(c.lat.report), 99, "ms")
	m.pct("chunk_p50_ms", ms(c.lat.chunk), 50, "ms")
	m.pct("observe_p50_ms", ms(c.lat.observe), 50, "ms")
	m.add("error_rate", ratio(float64(res.failed), float64(res.attempted)), "ratio", res.attempted)
	m.add("cpu_us_per_device_slot", ratio(float64(rt1.cpu-rt0.cpu)/1e3, devSlots), "us", slots)
	m.add("allocs_per_device_slot", ratio(float64(rt1.allocs-rt0.allocs), devSlots), "count", slots)
	m.add("heap_peak_mb", c.peak.mb(), "MB", slots)
	probeMS, probes := probe.ms()
	m.add("host_probe_ms", probeMS, "ms", probes)

	res.notes = append(res.notes, fmt.Sprintf("slot cycle split (medians): report %.3f ms, tick %.3f ms, decision fetch %.3f ms",
		median(ms(c.lat.reportPhase)), median(ms(c.lat.tick)), median(ms(c.lat.fetchPhase))))
	digest := hex.EncodeToString(c.digest.Sum(nil))
	g, err := golden()
	if err != nil {
		return res, fmt.Errorf("golden.json: %w", err)
	}
	want := g[cfg.workload][strconv.FormatInt(cfg.seed, 10)]
	if !cfg.golden {
		want = ""
	}
	switch {
	case c.digested < cfg.digestSlots:
		res.problems = append(res.problems, fmt.Sprintf("only %d slots ran; the digest needs %d", c.digested, cfg.digestSlots))
	case want == "":
		res.notes = append(res.notes, fmt.Sprintf("digest %s over %d slots (no recorded digest for this seed; structural checks only)", digest, c.digested))
	case want != digest:
		res.problems = append(res.problems, fmt.Sprintf("digest %s over %d slots differs from the recorded %s", digest, c.digested, want))
	default:
		res.notes = append(res.notes, fmt.Sprintf("digest %s over %d slots matches the recorded digest", digest, c.digested))
	}

	if tr == nil {
		return res, nil
	}
	tr.mu.Lock()
	rep := analyze(tr.spans, tr.ticks, len(c.tracedCycle))
	tr.mu.Unlock()
	res.layer = rep.metric
	scrapeB, series := c.lg.scrapes()
	layerCommon(&res.layer, dec0, rec0, dec1, rec1, ms(c.lat.scrape), scrapeB, series, rt0, rt1, slots)
	res.layer.pct("router.reshard_ms", ms(c.lat.reshard), 50, "ms")
	if c.sys.router == nil {
		res.layer.add("router.decision.probes_per_get", 0, "count", slots)
	}
	res.layer.add("router.handoff_states", mean(c.handoffs), "count", slots)
	traced, plain := median(ms(c.tracedCycle)), median(ms(c.plainCycle))
	res.notes = append(res.notes,
		fmt.Sprintf("untraced slot_cycle_p50_ms %.3f (n=%d), traced %.3f (n=%d): tracing overhead %.3f ms (%.1f%%)",
			plain, len(c.plainCycle), traced, len(c.tracedCycle), traced-plain, 100*ratio(traced-plain, plain)))
	var b strings.Builder
	rep.printSelf(&b)
	res.notes = append(res.notes, strings.TrimRight(b.String(), "\n"))
	return res, nil
}

func runStream(cfg config, tr *tracer) (result, error) {
	s, setupS, err := setupTimes(cfg, func() (*streamRun, error) { return setupStream(cfg, tr) })
	if err != nil {
		return result{}, err
	}
	defer s.close()
	dec0, rec0, err := ingestStats(s.sys.servers())
	if err != nil {
		return result{}, err
	}
	rt0 := readRuntime()
	out := s.run()
	rt1 := readRuntime()
	final, err := s.flush()
	if err != nil {
		return result{}, fmt.Errorf("final tick: %w", err)
	}
	dec1, rec1, err := ingestStats(s.sys.servers())
	if err != nil {
		return result{}, err
	}
	var res result
	res.attempted, res.failed, res.problems = s.lg.counters()
	res.problems = append(res.problems, checkStream(s.items, out, s.tickR, final)...)
	for i := range out {
		if out[i].end == 0 {
			res.problems = append(res.problems, fmt.Sprintf("the schedule passed the %v hard stop; item %d of %d was never sent", cfg.hardStop, i, len(out)))
			break
		}
	}

	phase := cfg.seconds / time.Duration(len(cfg.rates))
	var lowLat, highLat, tracedLat, plainLat, tickLat, cycle, late []float64
	reports, good := 0, 0
	for i, it := range s.items {
		o := out[i]
		late = append(late, float64(o.late)/1e6)
		lat := float64(o.latency(it)) / 1e6
		high := it.due >= phase
		switch it.kind {
		case kindReport:
			reports++
			if !high {
				lowLat = append(lowLat, lat)
				continue
			}
			highLat = append(highLat, lat)
			if o.ok && o.latency(it) <= cfg.latencyLimit {
				good++
			}
			if s.window(it.due)%2 == 1 {
				tracedLat = append(tracedLat, lat)
			} else {
				plainLat = append(plainLat, lat)
			}
		case kindTick:
			if high && it.due > phase {
				tickLat = append(tickLat, lat)
				cycle = append(cycle, float64(o.end-(it.due-cfg.tickEvery))/1e6)
			}
		}
	}
	goodput := float64(good) / phase.Seconds()
	m := &res.e2e
	m.add("setup_s", setupS, "s", cfg.setups)
	m.pct("slot_cycle_p50_ms", cycle, 50, "ms")
	// Measured, not scaled: see hostProbe.
	m.pct("slot_cycle_p50_at_ref_ms", cycle, 50, "ms")
	m.add("device_slots_per_s", goodput, "1/s", len(highLat))
	m.add("device_slots_per_s_at_ref", goodput, "1/s", len(highLat))
	m.pct("tick_p50_ms", tickLat, 50, "ms")
	m.pct("report_p50_ms", highLat, 50, "ms")
	m.pct("report_p99_ms", highLat, 99, "ms")
	m.add("report_goodput_rps", goodput, "1/s", len(highLat))
	m.pct("report_low_p50_ms", lowLat, 50, "ms")
	m.pct("report_low_p99_ms", lowLat, 99, "ms")
	m.add("error_rate", ratio(float64(res.failed), float64(res.attempted)), "ratio", res.attempted)
	m.add("cpu_us_per_device_slot", ratio(float64(rt1.cpu-rt0.cpu)/1e3, float64(reports)), "us", reports)
	m.add("allocs_per_device_slot", ratio(float64(rt1.allocs-rt0.allocs), float64(reports)), "count", reports)
	m.add("heap_peak_mb", s.peak.mb(), "MB", len(tickLat))
	latP99, _ := percentile(late, 99)
	res.notes = append(res.notes, fmt.Sprintf("rates %v reports/s for %v each, latency limit %v, generator lateness p99 %.3f ms (limit %v)",
		cfg.rates, phase, cfg.latencyLimit, latP99, cfg.lateLimit))
	if time.Duration(latP99*1e6) > cfg.lateLimit {
		res.problems = append(res.problems, fmt.Sprintf("INVALID: generator lateness p99 %.3f ms exceeds %v; the offered rate was not met", latP99, cfg.lateLimit))
	}

	if tr == nil {
		return res, nil
	}
	s.link()
	windows := int(cfg.seconds / cfg.tickEvery)
	tr.mu.Lock()
	rep := analyze(tr.spans, tr.ticks, windows/2)
	tr.mu.Unlock()
	res.layer = rep.metric
	var lat latencies
	s.lg.merged(&lat)
	scrapeB, series := s.lg.scrapes()
	layerCommon(&res.layer, dec0, rec0, dec1, rec1, ms(lat.scrape), scrapeB, series, rt0, rt1, windows)
	res.layer.add("router.handoff_states", 0, "count", windows)
	res.layer.add("router.decision.probes_per_get", 0, "count", windows)
	res.layer.pct("loadgen.late_p99_ms", late, 99, "ms")
	traced, plain := median(tracedLat), median(plainLat)
	res.notes = append(res.notes,
		fmt.Sprintf("untraced report_p50_ms %.3f (n=%d), traced %.3f (n=%d): tracing overhead %.3f ms (%.1f%%)",
			plain, len(plainLat), traced, len(tracedLat), traced-plain, 100*ratio(traced-plain, plain)))
	var b strings.Builder
	rep.printSelf(&b)
	res.notes = append(res.notes, strings.TrimRight(b.String(), "\n"))
	return res, nil
}
