package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// layerReport is what a traced run derives from its spans.
type layerReport struct {
	self   map[string]float64 // layer -> self time in ms, summed
	slots  int                // traced slots the spans cover
	metric metricSet
}

// interval is a closed span of time in nanoseconds.
type interval struct{ lo, hi int64 }

// coveredNS is how much of [lo, hi] the intervals cover, counting
// overlaps once.
func coveredNS(lo, hi int64, ivs []interval) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	cur := interval{lo: -1, hi: -1}
	for _, iv := range ivs {
		iv.lo, iv.hi = max(iv.lo, lo), min(iv.hi, hi)
		if iv.hi <= iv.lo {
			continue
		}
		if iv.lo > cur.hi {
			if cur.hi > cur.lo {
				total += cur.hi - cur.lo
			}
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	if cur.hi > cur.lo {
		total += cur.hi - cur.lo
	}
	return total
}

// spanIndex groups spans by ID and by parent.
type spanIndex struct {
	spans    []span
	children map[uint64][]int
}

func newSpanIndex(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: map[uint64][]int{}}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			ix.children[p] = append(ix.children[p], i)
		}
	}
	return ix
}

// selfNS is a span's duration minus the part its children cover.
func (ix *spanIndex) selfNS(i int) int64 {
	s := &ix.spans[i]
	var ivs []interval
	for _, c := range ix.children[s.ID] {
		ivs = append(ivs, interval{ix.spans[c].Start, ix.spans[c].End})
	}
	return s.dur() - coveredNS(s.Start, s.End, ivs)
}

// kids returns the children of span i.
func (ix *spanIndex) kids(i int) []*span {
	var out []*span
	for _, c := range ix.children[ix.spans[i].ID] {
		out = append(out, &ix.spans[c])
	}
	return out
}

const nsPerMS = 1e6

// analyze computes the per-layer metrics of a traced run from its
// spans and tick samples. slots is how many slots (or, in the open
// loop, tick periods) were traced.
func analyze(spans []span, ticks []tickSample, slots int) layerReport {
	ix := newSpanIndex(spans)
	rep := layerReport{self: map[string]float64{}, slots: slots}
	m := &rep.metric

	var (
		waitReport, waitDecision                    []float64
		encNS, encRecords, encBytes                 float64
		busy                                        = map[string][]float64{}
		overlap, apart                              []float64
		routerTick, routerReport, routerDec, probes []float64
	)
	ticksByProc := map[string][]interval{}
	for i := range spans {
		s := &spans[i]
		if (s.Layer == "server" && s.Name == "/v1/tick") || (s.Layer == "shard" && s.Name == "/v1/shard/tick") {
			ticksByProc[s.Proc] = append(ticksByProc[s.Proc], interval{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		rep.self[s.Layer] += float64(ix.selfNS(i)) / nsPerMS
		kids := ix.kids(i)
		switch s.Layer {
		case "client":
			var childNS int64
			for _, k := range kids {
				childNS = max(childNS, k.dur())
			}
			if len(kids) == 0 {
				continue
			}
			wait := float64(s.dur()-childNS-s.EncodeNS) / nsPerMS
			switch s.Name {
			case "/v1/report":
				waitReport = append(waitReport, wait)
			case "/v1/decision":
				waitDecision = append(waitDecision, wait)
			}
		case "wire":
			encNS += float64(s.dur())
			encRecords += float64(s.Records)
			encBytes += float64(s.Bytes)
		case "server", "shard":
			name := strings.TrimPrefix(strings.TrimPrefix(s.Name, "/v1/shard/"), "/v1/")
			busy[name] = append(busy[name], float64(s.dur())/nsPerMS)
			if name == "report" {
				d := float64(s.dur()) / nsPerMS
				if coveredNS(s.Start, s.End, append([]interval(nil), ticksByProc[s.Proc]...)) > 0 {
					overlap = append(overlap, d)
				} else {
					apart = append(apart, d)
				}
			}
		case "router":
			var maxNS, sumNS int64
			for _, k := range kids {
				maxNS = max(maxNS, k.dur())
				sumNS += k.dur()
			}
			switch s.Name {
			case "/v1/tick":
				routerTick = append(routerTick, float64(s.dur()-maxNS)/nsPerMS)
			case "/v1/report":
				routerReport = append(routerReport, float64(s.dur()-maxNS)/nsPerMS)
			case "/v1/decision":
				routerDec = append(routerDec, float64(s.dur()-sumNS)/1e3)
				probes = append(probes, float64(len(kids)))
			}
		}
	}

	m.pct("transport.report.wait_ms", waitReport, 50, "ms")
	m.pct("transport.decision.wait_ms", waitDecision, 50, "ms")
	m.add("wire.encode_us_per_report", ratio(encNS/1e3, encRecords), "us", int(encRecords))
	m.add("wire.bytes_per_report", ratio(encBytes, encRecords), "bytes", int(encRecords))
	m.pct("server.report.busy_ms", busy["report"], 50, "ms")
	m.add("server.report.tick_overlap_share", ratio(float64(len(overlap)), float64(len(overlap)+len(apart))), "ratio", len(overlap)+len(apart))
	m.pct("server.report.overlap_p50_ms", overlap, 50, "ms")
	m.pct("server.report.clear_p50_ms", apart, 50, "ms")
	m.pct("server.tick.busy_ms", busy["tick"], 50, "ms")
	for _, r := range []string{"decision", "chunk", "observe"} {
		us := make([]float64, len(busy[r]))
		for i, v := range busy[r] {
			us[i] = v * 1e3
		}
		m.pct("server."+r+".busy_us", us, 50, "us")
	}

	var unsched, respond, compact, p1, p2, cpu, nodes []float64
	var schedNS, handlerNS, hits, lookups float64
	var replayed, degraded, optimal, warm int
	for _, t := range ticks {
		st := t.st
		phases := (st.CompactSec + st.Phase1Sec + st.Phase2Sec) / float64(t.par)
		unsched = append(unsched, (st.DurationSec-phases)*1e3)
		respond = append(respond, float64(t.handlerNS)/nsPerMS-st.DurationSec*1e3)
		compact = append(compact, st.CompactSec*1e3)
		p1 = append(p1, st.Phase1Sec*1e3)
		p2 = append(p2, st.Phase2Sec*1e3)
		cpu = append(cpu, st.CPUSec*1e3)
		nodes = append(nodes, float64(st.Phase1Nodes))
		schedNS += phases * 1e9
		handlerNS += float64(t.handlerNS)
		hits += float64(st.CacheHits)
		lookups += float64(st.CacheHits + st.CacheMisses)
		replayed += b2i(st.Replayed)
		degraded += b2i(st.Degraded)
		optimal += b2i(st.Phase1Optimal)
		warm += b2i(st.Phase1Warm)
	}
	n := len(ticks)
	m.pct("server.tick.unsched_ms", unsched, 50, "ms")
	m.pct("server.tick.respond_ms", respond, 50, "ms")
	m.pct("scheduler.compact_ms", compact, 50, "ms")
	m.pct("scheduler.phase1_ms", p1, 50, "ms")
	m.pct("scheduler.phase2_ms", p2, 50, "ms")
	m.pct("scheduler.cpu_ms", cpu, 50, "ms")
	m.add("scheduler.tick_share", ratio(schedNS, handlerNS), "ratio", n)
	m.add("scheduler.plan_cache_hit_rate", ratio(hits, lookups), "ratio", int(lookups))
	m.add("scheduler.plan_cache_lookups", lookups, "count", n)
	m.add("scheduler.replayed_ticks", float64(replayed), "count", n)
	m.add("scheduler.degraded_ticks", float64(degraded), "count", n)
	m.pct("ilp.phase1_nodes", nodes, 50, "count")
	m.add("ilp.phase1_optimal_share", ratio(float64(optimal), float64(n)), "ratio", n)
	m.add("ilp.phase1_warm_share", ratio(float64(warm), float64(n)), "ratio", n)

	// Per-slot shard statistics: the slowest member's tick, and how
	// much slower it was than the members' mean.
	perSlot := map[int][]float64{}
	for _, t := range ticks {
		perSlot[t.trace] = append(perSlot[t.trace], float64(t.handlerNS)/nsPerMS)
	}
	var slowest, skew []float64
	for _, ds := range perSlot {
		var mx, sum float64
		for _, d := range ds {
			mx, sum = max(mx, d), sum+d
		}
		slowest = append(slowest, mx)
		skew = append(skew, ratio(mx, sum/float64(len(ds))))
	}
	m.pct("shard.tick.busy_ms", slowest, 50, "ms")
	m.pct("shard.tick.skew", skew, 50, "ratio")
	m.pct("router.tick.overhead_ms", routerTick, 50, "ms")
	m.pct("router.report.overhead_ms", routerReport, 50, "ms")
	m.pct("router.decision.overhead_us", routerDec, 50, "us")
	m.add("router.decision.probes_per_get", mean(probes), "count", len(probes))
	return rep
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// layerOrder is the print order of the self-time table.
var layerOrder = []string{"loadgen", "client", "wire", "router", "server", "shard", "scheduler", "obs"}

// printSelf prints each layer's self time per traced slot and its
// share of the total.
func (rep layerReport) printSelf(w io.Writer) {
	var total float64
	for _, v := range rep.self {
		total += v
	}
	fmt.Fprintf(w, "self time per traced slot (%d slots):\n", rep.slots)
	for _, l := range layerOrder {
		v, ok := rep.self[l]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-10s %10.3f ms  %5.1f%%\n", l, ratio(v, float64(rep.slots)), 100*ratio(v, total))
	}
}
