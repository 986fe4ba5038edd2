package main

import (
	"strings"
	"testing"
	"time"

	"lpvs/internal/server"
)

func TestBuildScheduleDueTimes(t *testing.T) {
	items := buildSchedule([]int{2, 0, 1}, []float64{4, 8}, time.Second, 500*time.Millisecond)
	var reports, ticks, scrapes int
	var devs []int32
	for i, it := range items {
		if i > 0 && it.due < items[i-1].due {
			t.Fatalf("item %d due %v before item %d due %v", i, it.due, i-1, items[i-1].due)
		}
		switch it.kind {
		case kindReport:
			reports++
			devs = append(devs, it.dev)
		case kindTick:
			ticks++
			if it.due%(500*time.Millisecond) != 0 {
				t.Errorf("tick due at %v, not on the 500ms grid", it.due)
			}
		case kindScrape:
			scrapes++
		}
	}
	if reports != 12 || ticks != 4 || scrapes != 4 {
		t.Fatalf("reports %d ticks %d scrapes %d, want 12, 4, 4", reports, ticks, scrapes)
	}
	// Phase 2 starts at 1s with reports every 125ms.
	var second []time.Duration
	for _, it := range items {
		if it.kind == kindReport && it.due >= time.Second {
			second = append(second, it.due)
		}
	}
	if len(second) != 8 || second[0] != time.Second || second[1]-second[0] != 125*time.Millisecond {
		t.Fatalf("second phase dues %v", second)
	}
	// Devices cycle through the permutation; ordinals count the cycles.
	if got := devs[:4]; got[0] != 2 || got[1] != 0 || got[2] != 1 || got[3] != 2 {
		t.Fatalf("device order %v, want 2 0 1 2", got)
	}
	for _, it := range items {
		if it.kind == kindReport && it.due == time.Second && it.ord != 1 {
			t.Fatalf("4th report has ordinal %d, want 1", it.ord)
		}
	}
}

func TestRunScheduleTimesFromDue(t *testing.T) {
	// One worker, a request due every 2ms, each taking 10ms: the
	// backlog grows, and each request's latency counts its wait in the
	// queue. The generator itself is never late: the worker was busy.
	var items []item
	for k := 0; k < 5; k++ {
		items = append(items, item{due: time.Duration(k) * 2 * time.Millisecond, kind: kindReport})
	}
	out := runSchedule(items, 1, time.Minute, func(int, int, item) (int32, bool) {
		time.Sleep(10 * time.Millisecond)
		return 0, true
	})
	for k, o := range out {
		min := time.Duration(k+1)*10*time.Millisecond - time.Duration(k)*2*time.Millisecond
		if lat := o.latency(items[k]); lat < min {
			t.Errorf("item %d latency %v, want at least %v", k, lat, min)
		}
		if o.late > 5*time.Millisecond {
			t.Errorf("item %d generator lateness %v although the worker was busy", k, o.late)
		}
	}

	// Requests due far apart: latency is the service time, and the
	// worker waits for each due time.
	items = []item{{due: 0}, {due: 30 * time.Millisecond}}
	out = runSchedule(items, 1, time.Minute, func(int, int, item) (int32, bool) { return 0, true })
	if out[1].sent < 30*time.Millisecond {
		t.Errorf("item sent at %v, before it was due", out[1].sent)
	}
	if lat := out[1].latency(items[1]); lat > 20*time.Millisecond {
		t.Errorf("idle item latency %v", lat)
	}
}

func TestCheckStreamMatchesTicks(t *testing.T) {
	items := []item{
		{kind: kindReport, dev: 1}, {kind: kindReport, dev: 2}, {kind: kindReport, dev: 1},
		{kind: kindTick},
		{kind: kindReport, dev: 3},
	}
	out := []outcome{{slot: 7, ok: true}, {slot: 7, ok: true}, {slot: 7, ok: true}, {ok: true}, {slot: 8, ok: true}}
	ticks := make([]server.TickResponse, len(items))
	ticks[3] = server.TickResponse{Slot: 7, Reports: 2}
	if p := checkStream(items, out, ticks, server.TickResponse{Slot: 8, Reports: 1}); len(p) != 0 {
		t.Fatalf("consistent run flagged: %v", p)
	}
	ticks[3].Reports = 3
	p := checkStream(items, out, ticks, server.TickResponse{Slot: 8, Reports: 1})
	if len(p) != 1 || !strings.Contains(p[0], "slot 7") {
		t.Fatalf("miscounted tick not flagged: %v", p)
	}
}
