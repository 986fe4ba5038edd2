package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"time"

	"lpvs/internal/client"
	"lpvs/internal/router"
	"lpvs/internal/server"
	"lpvs/internal/video"
	"lpvs/internal/wire"
)

// closedLoop drives edge-slot and federated: every slot, each device
// reports (in binary batches), the edge ticks, each device fetches its
// decision, a tenth fetch a chunk and observe, and /metrics is
// scraped. Each worker waits for a reply before its next request.
type closedLoop struct {
	cfg     config
	sys     *system
	fl      *fleet
	lg      *loadgen
	tr      *tracer
	clients []*client.Client
	decs    []server.DecisionResponse
	reqs    []server.ReportRequest
	members int // shards in the router's current map

	lat      latencies
	peak     heapPeak
	digest   hash.Hash
	digested int
	handoffs []float64
	// cycles of traced and untraced slots, for the tracing overhead
	tracedCycle, plainCycle []time.Duration
}

// latencies are the timed samples of one run.
type latencies struct {
	cycle, tick, report, decision, chunk, observe, scrape, reshard []time.Duration
	// reportPhase and fetchPhase split the slot cycle with tick.
	reportPhase, fetchPhase []time.Duration
	// slot is each timed slot's whole wall time, the probe's excluded.
	slot []time.Duration
}

const chunksPerSlot = int(lpvsdSlotSec / video.DefaultChunkSeconds)

// setupClosed generates the device population, starts the daemons and
// plays one untimed warm-up slot.
func setupClosed(cfg config, tr *tracer) (*closedLoop, error) {
	fl, err := newFleet(cfg.seed, cfg.devices, cfg.channels)
	if err != nil {
		return nil, err
	}
	sys, err := startSystem(cfg.workload == "federated", cfg.channels, tr)
	if err != nil {
		return nil, err
	}
	c := &closedLoop{cfg: cfg, sys: sys, fl: fl, tr: tr, members: 2, digest: sha256.New()}
	if c.lg, err = newLoadgen(sys.target, cfg.conns, tr, fl.devs[0]); err != nil {
		c.close()
		return nil, err
	}
	c.clients = make([]*client.Client, cfg.devices)
	c.decs = make([]server.DecisionResponse, cfg.devices)
	for i := range c.clients {
		if err := c.bind(i); err != nil {
			c.close()
			return nil, err
		}
	}
	if err := c.slot(-1, false); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// bind builds device i's client on the worker that serves it.
func (c *closedLoop) bind(i int) error {
	w := c.lg.ws[i%len(c.lg.ws)]
	cl, err := client.New(c.sys.target, c.fl.devs[i], w.hc)
	if err != nil {
		return err
	}
	cl.SetChannel(c.fl.chans[i])
	c.clients[i] = cl
	return nil
}

func (c *closedLoop) close() {
	if c.lg != nil {
		c.lg.close()
	}
	c.sys.close()
}

// run plays cfg.slots timed slots (fewer if cfg.hardStop passes
// first), sampling the host probe before each and after the last, and
// returns the slots' summed wall time. The work, not the time, is
// fixed: every run of a workload then holds the same population and
// the same number of devices the daemon has seen, on any commit.
func (c *closedLoop) run(probe *hostProbe) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	c.peak.sample()
	var wall time.Duration
	for k := 0; k < c.cfg.slots && time.Since(start) < c.cfg.hardStop; k++ {
		if err := probe.sample(); err != nil {
			return wall, err
		}
		t := time.Now()
		err := c.slot(k, true)
		c.lat.slot = append(c.lat.slot, time.Since(t))
		wall += time.Since(t)
		if err != nil {
			return wall, err
		}
	}
	return wall, probe.sample()
}

// slot plays slot k; k < 0 is the warm-up, which records nothing.
func (c *closedLoop) slot(k int, timed bool) error {
	traced := c.tr != nil && timed && k%2 == 1
	root := c.tr.beginSlot(k, traced)
	n := len(c.clients)

	// 1. Every device reports, in batches.
	t0 := time.Now()
	c.reqs = c.reqs[:0]
	for _, cl := range c.clients {
		c.reqs = append(c.reqs, cl.ReportRequest())
	}
	nb := (n + c.cfg.batch - 1) / c.cfg.batch
	c.lg.parallel(func(w *worker) {
		for b := w.id; b < nb; b += len(c.lg.ws) {
			part := c.reqs[b*c.cfg.batch : min((b+1)*c.cfg.batch, n)]
			enc := c.encodeSpan(w, part, b)
			var resp server.BatchReportResponse
			d, err := w.call("/v1/report", fmt.Sprintf("batch:%d", b), enc, func() (err error) {
				resp, err = w.batcher.ReportBatch(part)
				return err
			})
			if timed {
				w.lat.report = append(w.lat.report, d)
			}
			switch {
			case err != nil:
				w.problem("slot %d batch %d: %v", k, b, err)
			case resp.Accepted != len(part) || resp.Rejected != 0:
				w.problem("slot %d batch %d: accepted %d rejected %d of %d", k, b, resp.Accepted, resp.Rejected, len(part))
			}
		}
	})
	c.peak.sample()
	reportPhase := time.Since(t0)

	// 2. One tick.
	w0 := c.lg.ws[0]
	var tick router.TickResponse
	d, err := w0.call("/v1/tick", "", 0, func() error {
		return w0.caller.PostRaw("/v1/tick", "application/json", nil, &tick)
	})
	if err != nil {
		return fmt.Errorf("slot %d tick: %w", k, err)
	}
	if tick.Reports != n || tick.ShardErrors != 0 || tick.Degraded {
		w0.problem("slot %d tick: reports %d of %d, shard errors %d, degraded %v", k, tick.Reports, n, tick.ShardErrors, tick.Degraded)
	}
	c.peak.sample()

	// 3. Every device fetches its decision.
	t3 := time.Now()
	c.lg.parallel(func(w *worker) {
		for i := w.id; i < n; i += len(c.lg.ws) {
			id := c.fl.devs[i].ID
			var dec server.DecisionResponse
			d, err := w.call("/v1/decision", id, 0, func() (err error) {
				dec, err = c.clients[i].Decision()
				return err
			})
			if timed {
				w.lat.decision = append(w.lat.decision, d)
			}
			if err != nil {
				w.problem("slot %d decision %s: %v", k, id, err)
			}
			if dec.DeviceID != id || c.sys.edge != nil && dec.Slot != tick.Slot {
				w.problem("slot %d decision %s: got device %q slot %d, want slot %d", k, id, dec.DeviceID, dec.Slot, tick.Slot)
			}
			c.decs[i] = dec
		}
	})
	fetchPhase := time.Since(t3)
	cycle := time.Since(t0)
	c.peak.sample()
	selected := 0
	for i := range c.decs {
		if c.decs[i].Transform {
			selected++
		}
	}
	if selected != tick.Selected {
		w0.problem("slot %d: %d devices hold a transform, tick selected %d", k, selected, tick.Selected)
	}

	// 4. A tenth of the devices fetch a chunk and observe.
	idx, chunk := c.fl.observers(chunksPerSlot)
	red := make([]float64, len(idx))
	for j, i := range idx {
		red[j] = c.fl.reduction(i)
	}
	c.lg.parallel(func(w *worker) {
		for j, i := range idx {
			if i%len(c.lg.ws) != w.id {
				continue
			}
			id := c.fl.devs[i].ID
			var ch server.ChunkResponse
			d, err := w.call("/v1/chunk", id, 0, func() (err error) {
				ch, err = c.clients[i].Chunk(chunk[j])
				return err
			})
			if timed {
				w.lat.chunk = append(w.lat.chunk, d)
			}
			if err != nil || ch.Transformed != c.decs[i].Transform {
				w.problem("slot %d chunk %s: transformed %v, decision %v, err %v", k, id, ch.Transformed, c.decs[i].Transform, err)
			}
			var ob server.ObserveResponse
			d, err = w.call("/v1/observe", id, 0, func() (err error) {
				ob, err = c.clients[i].Observe(red[j])
				return err
			})
			if timed {
				w.lat.observe = append(w.lat.observe, d)
			}
			if err != nil || ob.Observations < 1 || ob.Gamma <= 0 || ob.Gamma >= 1 {
				w.problem("slot %d observe %s: %+v, err %v", k, id, ob, err)
			}
		}
	})

	// 5. One /metrics scrape.
	if err := w0.scrape(c.sys.target); err != nil {
		w0.problem("slot %d scrape: %v", k, err)
	}
	c.peak.sample()

	if traced {
		c.link(tick)
	}
	c.tr.endSlot(root, traced)
	if !timed {
		for _, w := range c.lg.ws {
			w.reset()
		}
		return c.advance(k)
	}
	c.lat.cycle = append(c.lat.cycle, cycle)
	c.lat.tick = append(c.lat.tick, d)
	c.lat.reportPhase = append(c.lat.reportPhase, reportPhase)
	c.lat.fetchPhase = append(c.lat.fetchPhase, fetchPhase)
	if c.tr != nil {
		if traced {
			c.tracedCycle = append(c.tracedCycle, cycle)
		} else {
			c.plainCycle = append(c.plainCycle, cycle)
		}
	}
	if c.digested < c.cfg.digestSlots {
		c.hashSlot(tick)
		c.digested++
	}
	return c.advance(k)
}

// encodeSpan times a separate wire.AppendBatch of the batch in traced
// slots and records it as a wire span; it returns the encode time.
func (c *closedLoop) encodeSpan(w *worker, part []server.ReportRequest, b int) int64 {
	if !w.tr.active() {
		return 0
	}
	sp := w.tr.clientSpan("encode", fmt.Sprintf("batch:%d", b))
	sp.Layer = "wire"
	buf, err := wire.AppendBatch(w.encBuf[:0], part)
	sp.End = w.tr.now()
	if err != nil {
		w.problem("encode batch %d: %v", b, err)
		return 0
	}
	w.encBuf = buf
	sp.Records, sp.Bytes = len(part), len(buf)
	w.tr.record(sp)
	return sp.dur()
}

// hashSlot folds the slot's tick counts, every fetched decision and,
// federated, the merged VCs' canonical bytes into the run digest.
func (c *closedLoop) hashSlot(tick router.TickResponse) {
	fmt.Fprintf(c.digest, "tick %d %d %d %d\n", tick.Reports, tick.Eligible, tick.Selected, tick.Swaps)
	var g [8]byte
	for _, d := range c.decs {
		binary.BigEndian.PutUint64(g[:], math.Float64bits(d.Gamma))
		fmt.Fprintf(c.digest, "%s %d %v %x\n", d.DeviceID, d.Slot, d.Transform, g)
	}
	for _, vc := range tick.VCs {
		fmt.Fprintf(c.digest, "vc %s %d\n", vc.VC, len(vc.Canonical))
		c.digest.Write(vc.Canonical)
	}
}

// advance evolves the population after slot k and, federated, flips
// the shard map between {a,b} and {a,b,c} every cfg.reshardEvery
// slots.
func (c *closedLoop) advance(k int) error {
	gone, err := c.fl.advance()
	if err != nil {
		return err
	}
	for _, i := range gone {
		if err := c.bind(i); err != nil {
			return err
		}
	}
	if c.sys.router == nil || k < 0 || (k+1)%c.cfg.reshardEvery != 0 {
		return nil
	}
	c.members = 5 - c.members // 2 <-> 3
	m, err := shardMap(c.sys.shards[:c.members])
	if err != nil {
		return err
	}
	w0 := c.lg.ws[0]
	var resp router.ReshardResponse
	d, err := w0.call("/v1/shard/map", "", 0, func() error {
		return w0.caller.PostJSON("/v1/shard/map", m.Spec(), &resp)
	})
	if err != nil {
		return fmt.Errorf("reshard after slot %d: %w", k, err)
	}
	if resp.Epoch != m.Epoch() {
		w0.problem("reshard after slot %d: epoch %s, want %s", k, resp.Epoch, m.Epoch())
	}
	c.lat.reshard = append(c.lat.reshard, d)
	c.handoffs = append(c.handoffs, float64(resp.HandoffStates))
	return nil
}
