package main

import (
	"encoding/json"
	"fmt"

	"lpvs/internal/router"
	"lpvs/internal/server"
)

// link resolves a traced closed-loop slot. Edge and router spans know
// their client parent from the stamped header. A shard member is
// called by the router, which sends no header, so its spans are
// matched to the router request by route and device: the device query
// parameter, the observed device, or — for a forwarded report
// sub-batch — the batch holding the sub-batch's first device. Tick
// handler spans get the scheduler's phases as children.
func (c *closedLoop) link(tick router.TickResponse) {
	c.tr.link(func(sp []span) []span {
		byID := make(map[uint64]int, len(sp))
		for i := range sp {
			byID[sp[i].ID] = i
		}
		routerBy := map[string]uint64{}
		var clientTick uint64
		for i := range sp {
			s := &sp[i]
			switch {
			case s.Layer == "router":
				key := s.Key
				if p, ok := byID[s.Parent]; ok && key == "" {
					key = sp[p].Key
				}
				routerBy[s.Name+" "+key] = s.ID
			case s.Layer == "client" && s.Name == "/v1/tick":
				clientTick = s.ID
			}
		}
		var extra []span
		for i := range sp {
			s := &sp[i]
			switch {
			case s.Layer == "shard" && s.Parent == 0:
				name, key := s.Name, s.Key
				switch s.Name {
				case "/v1/report":
					key = fmt.Sprintf("batch:%d", c.fl.index[key]/c.cfg.batch)
				case "/v1/shard/tick":
					name, key = "/v1/tick", ""
				}
				s.Parent = routerBy[name+" "+key]
				if s.Name == "/v1/shard/tick" {
					var r server.ShardTickResponse
					if json.Unmarshal(s.body, &r) == nil {
						extra = append(extra, c.tr.schedSpans(s, r.Sched, len(r.VCs))...)
					}
				}
			case s.Layer == "server" && s.Name == "/v1/tick" && s.Parent == clientTick:
				extra = append(extra, c.tr.schedSpans(s, tick.Sched, 1)...)
			}
			s.body = nil
		}
		return extra
	})
}

// link attaches each traced tick's scheduler phases, from the
// responses the workers kept, once the schedule has finished.
func (s *streamRun) link() {
	if s.tr == nil {
		return
	}
	sched := map[uint64]server.TickStats{}
	for _, w := range s.lg.ws {
		for _, ts := range w.tickSched {
			sched[ts.id] = ts.st
		}
	}
	s.tr.link(func(sp []span) []span {
		var extra []span
		for i := range sp {
			if st, ok := sched[sp[i].Parent]; ok && sp[i].Layer == "server" && sp[i].Name == "/v1/tick" {
				extra = append(extra, s.tr.schedSpans(&sp[i], st, 1)...)
			}
		}
		return extra
	})
}
