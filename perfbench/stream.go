package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"lpvs/internal/client"
	"lpvs/internal/device"
	"lpvs/internal/server"
	"lpvs/internal/stats"
	"lpvs/internal/wire"
)

// Item kinds of the open-loop schedule.
const (
	kindReport = iota
	kindTick
	kindScrape
)

// item is one request of the open-loop schedule, due at an offset from
// the schedule's start. A report names its device and the device's
// report ordinal.
type item struct {
	due  time.Duration
	kind uint8
	dev  int32
	ord  int32
}

// outcome is what happened to one item: when it was sent and finished
// (offsets from the schedule start), how late the generator sent it,
// the slot the daemon returned, and whether it succeeded.
type outcome struct {
	sent, end, late time.Duration
	slot            int32
	ok              bool
}

// latency is the item's latency counted from when it was due, so a
// stall also charges the requests queued behind it.
func (o outcome) latency(it item) time.Duration { return o.end - it.due }

// buildSchedule lays out the open loop: phase p sends reports at
// rates[p] for phaseLen, device after device in perm order (cycling),
// a tick is due every tickEvery and a /metrics scrape half-way between
// ticks. Items are sorted by due time, reports before a tick due at
// the same instant.
func buildSchedule(perm []int, rates []float64, phaseLen, tickEvery time.Duration) []item {
	var items []item
	sent := 0
	for p, rate := range rates {
		base := time.Duration(p) * phaseLen
		count := int(rate * phaseLen.Seconds())
		for j := 0; j < count; j++ {
			due := base + time.Duration(float64(j)/rate*float64(time.Second))
			items = append(items, item{due: due, kind: kindReport, dev: int32(perm[sent%len(perm)]), ord: int32(sent / len(perm))})
			sent++
		}
	}
	total := time.Duration(len(rates)) * phaseLen
	for t := tickEvery; t <= total; t += tickEvery {
		items = append(items, item{due: t, kind: kindTick}, item{due: t - tickEvery/2, kind: kindScrape})
	}
	sort.SliceStable(items, func(a, b int) bool {
		if items[a].due != items[b].due {
			return items[a].due < items[b].due
		}
		return items[a].kind < items[b].kind
	})
	return items
}

// runSchedule plays items with nWorkers workers, each taking the next
// item when it is free and waiting until the item is due. Lateness is
// how long after max(due, when the worker took the item) the request
// went out: the generator's own delay, not the wait for a free worker.
// Items still waiting when stop has passed are not sent; their outcome
// stays zero.
func runSchedule(items []item, nWorkers int, stop time.Duration, do func(w int, i int, it item) (slot int32, ok bool)) []outcome {
	out := make([]outcome, len(items))
	var next atomic.Int64
	start := time.Now()
	done := make(chan struct{})
	for w := 0; w < nWorkers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) || time.Since(start) > stop {
					return
				}
				it := items[i]
				picked := time.Since(start)
				if it.due > picked {
					time.Sleep(it.due - picked)
				}
				sent := time.Since(start)
				slot, ok := do(w, i, it)
				out[i] = outcome{sent: sent, end: time.Since(start), late: sent - max(it.due, picked), slot: slot, ok: ok}
			}
		}(w)
	}
	for w := 0; w < nWorkers; w++ {
		<-done
	}
	return out
}

// streamRun drives report-stream: devices report one at a time on a
// fixed schedule at two rates, with ticks and scrapes in the same
// schedule, against one edge daemon.
type streamRun struct {
	cfg  config
	sys  *system
	lg   *loadgen
	tr   *tracer
	devs []*device.Device
	// clients[w][i] is device i's client on worker w's connection:
	// any worker may send any device's next report, and the client
	// must use that worker's transport.
	clients [][]*client.Client
	e0      []float64 // energy at the device's first report
	drain   []float64 // energy lost between two reports; 0 while charging
	items   []item

	peak  heapPeak
	tickR []server.TickResponse // every tick response, by item
}

// window is the tick period a due time falls in; odd windows
// are traced in a traced run.
func (s *streamRun) window(due time.Duration) int { return int(due / s.cfg.tickEvery) }

func setupStream(cfg config, tr *tracer) (*streamRun, error) {
	rng := stats.NewRNG(cfg.seed)
	devs, err := device.NewFleet(rng, cfg.devices, device.DefaultGenConfig())
	if err != nil {
		return nil, err
	}
	sys, err := startSystem(false, cfg.channels, tr)
	if err != nil {
		return nil, err
	}
	s := &streamRun{cfg: cfg, sys: sys, tr: tr, devs: devs}
	if s.lg, err = newLoadgen(sys.target, cfg.conns, tr, devs[0]); err != nil {
		s.close()
		return nil, err
	}
	weights := channelWeights(cfg.channels)
	s.clients = make([][]*client.Client, len(s.lg.ws))
	for w := range s.clients {
		s.clients[w] = make([]*client.Client, len(devs))
	}
	s.e0 = make([]float64, len(devs))
	s.drain = make([]float64, len(devs))
	batch := make([]server.ReportRequest, 0, len(devs))
	for i, d := range devs {
		d.ID = fmt.Sprintf("d%07d", i)
		s.e0[i] = d.EnergyFrac()
		if rng.Bool(drainShare) {
			s.drain[i] = (d.BasePowerW + rng.Uniform(0.3, 1.0)) * lpvsdSlotSec / d.Battery.CapacityJ
		}
		ch := channelIDs[rng.Categorical(weights)]
		for w, wk := range s.lg.ws {
			cl, err := client.New(sys.target, d, wk.hc)
			if err != nil {
				s.close()
				return nil, err
			}
			cl.SetChannel(ch)
			s.clients[w][i] = cl
		}
		batch = append(batch, s.clients[0][i].ReportRequest())
	}
	s.items = buildSchedule(rng.Perm(len(devs)), cfg.rates, cfg.seconds/time.Duration(len(cfg.rates)), cfg.tickEvery)

	// Warm-up: every device reports once, in batches, and one tick
	// schedules them, so the timed run sees a daemon that knows the
	// whole population.
	w0 := s.lg.ws[0]
	for b := 0; b < len(batch); b += cfg.batch {
		part := batch[b:min(b+cfg.batch, len(batch))]
		resp, err := w0.batcher.ReportBatch(part)
		if err != nil || resp.Accepted != len(part) {
			s.close()
			return nil, fmt.Errorf("warm-up batch %d: accepted %d of %d: %v", b/cfg.batch, resp.Accepted, len(part), err)
		}
	}
	var tick server.TickResponse
	if err := w0.caller.PostRaw("/v1/tick", "application/json", nil, &tick); err != nil || tick.Reports != len(devs) {
		s.close()
		return nil, fmt.Errorf("warm-up tick: %d reports of %d: %v", tick.Reports, len(devs), err)
	}
	if err := w0.scrape(sys.target); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up scrape: %w", err)
	}
	for _, w := range s.lg.ws {
		w.reset()
	}
	return s, nil
}

func (s *streamRun) close() {
	if s.lg != nil {
		s.lg.close()
	}
	s.sys.close()
}

// energy is device i's battery fraction at its ord-th report: it
// drains by one slot of playback per report, down to lowFloor.
func (s *streamRun) energy(i, ord int) float64 {
	e := s.e0[i] - float64(ord+1)*s.drain[i]
	if e < lowFloor {
		e = min(lowFloor, s.e0[i])
	}
	return e
}

// run plays the schedule and returns each item's outcome.
func (s *streamRun) run() []outcome {
	s.tickR = make([]server.TickResponse, len(s.items))
	s.peak.sample()
	out := runSchedule(s.items, len(s.lg.ws), s.cfg.hardStop, func(wi, i int, it item) (int32, bool) {
		w := s.lg.ws[wi]
		win := s.window(it.due)
		traced := s.tr != nil && win%2 == 1
		switch it.kind {
		case kindReport:
			d := s.devs[it.dev]
			d.Battery.LevelJ = s.energy(int(it.dev), int(it.ord)) * d.Battery.CapacityJ
			var enc int64
			if traced {
				enc = s.encodeSpan(w, win, s.clients[wi][it.dev].ReportRequest())
			}
			var resp server.ReportResponse
			_, _, err := w.callIn(traced, win, "/v1/report", d.ID, enc, func() (err error) {
				resp, err = s.clients[wi][it.dev].Report()
				return err
			})
			return int32(resp.Slot), err == nil && resp.Accepted
		case kindTick:
			var resp server.TickResponse
			_, id, err := w.callIn(traced, win, "/v1/tick", "", 0, func() error {
				return w.caller.PostRaw("/v1/tick", "application/json", nil, &resp)
			})
			s.peak.sample()
			if err != nil {
				w.problem("tick at %v: %v", it.due, err)
				return -1, false
			}
			s.tickR[i] = resp
			if traced {
				w.tickSched = append(w.tickSched, tickSpan{id, resp.Sched})
			}
			return int32(resp.Slot), true
		default:
			err := w.scrapeIn(traced, win, s.sys.target)
			if err != nil {
				w.problem("scrape at %v: %v", it.due, err)
			}
			return -1, err == nil
		}
	})
	return out
}

// encodeSpan times a separate wire.AppendSingle of the report and
// records it as a wire span; it returns the encode time.
func (s *streamRun) encodeSpan(w *worker, win int, req server.ReportRequest) int64 {
	sp := s.tr.clientSpan("encode", req.DeviceID)
	sp.Trace, sp.Layer = win, "wire"
	buf, err := wire.AppendSingle(w.encBuf[:0], &req)
	sp.End = s.tr.now()
	if err != nil {
		w.problem("encode %s: %v", req.DeviceID, err)
		return 0
	}
	w.encBuf = buf
	sp.Records, sp.Bytes = 1, len(buf)
	s.tr.record(sp)
	return sp.dur()
}

// flush ticks once more, untimed, so every accepted report has been
// scheduled, and returns that tick.
func (s *streamRun) flush() (server.TickResponse, error) {
	var resp server.TickResponse
	err := s.lg.ws[0].caller.PostRaw("/v1/tick", "application/json", nil, &resp)
	return resp, err
}

// checkStream verifies that each tick scheduled exactly the distinct
// devices whose reports the daemon accepted for that tick's slot.
func checkStream(items []item, out []outcome, ticks []server.TickResponse, final server.TickResponse) []string {
	accepted := map[int32]map[int32]bool{}
	for i, it := range items {
		if it.kind != kindReport || !out[i].ok {
			continue
		}
		m := accepted[out[i].slot]
		if m == nil {
			m = map[int32]bool{}
			accepted[out[i].slot] = m
		}
		m[it.dev] = true
	}
	var problems []string
	check := func(t server.TickResponse) {
		if got := len(accepted[int32(t.Slot)]); got != t.Reports {
			problems = append(problems, fmt.Sprintf("slot %d: %d distinct devices accepted, tick scheduled %d", t.Slot, got, t.Reports))
		}
		delete(accepted, int32(t.Slot))
	}
	for i, it := range items {
		if it.kind == kindTick && out[i].ok {
			check(ticks[i])
		}
	}
	check(final)
	for slot, m := range accepted {
		problems = append(problems, fmt.Sprintf("slot %d: %d accepted reports never ticked", slot, len(m)))
	}
	return problems
}
