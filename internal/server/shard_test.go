package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpvs/internal/obs/audit"
	"lpvs/internal/shard"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

func testShardMap(tb testing.TB, ids ...string) *shard.Map {
	tb.Helper()
	nodes := make([]shard.Node, len(ids))
	for i, id := range ids {
		nodes[i] = shard.Node{ID: id, Addr: "http://" + id + ".local"}
	}
	m, err := shard.New(nodes, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func shardTestServer(tb testing.TB, cfg Config) (*Server, *httptest.Server) {
	tb.Helper()
	if cfg.Stream == nil {
		cfg.Stream = testStream(tb)
	}
	if cfg.ServerStreams == 0 {
		cfg.ServerStreams = -1
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 1
	}
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts
}

func extraStream(tb testing.TB, id string) *video.Video {
	tb.Helper()
	v, err := video.Generate(stats.NewRNG(7), video.DefaultGenConfig(id, video.Sports, 90))
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// Outside shard mode every /v1/shard/* endpoint refuses with an
// envelope 404 — a router pointed at a plain edge daemon fails loudly.
func TestShardAPIDisabledOutsideShardMode(t *testing.T) {
	_, ts := testServer(t, -1)
	checks := []struct{ method, path string }{
		{"POST", "/v1/shard/tick"},
		{"GET", "/v1/shard/state"},
		{"POST", "/v1/shard/handoff"},
		{"GET", "/v1/shard/map"},
		{"POST", "/v1/shard/map"},
	}
	for _, c := range checks {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s status %d, want 404", c.method, c.path, resp.StatusCode)
		}
		env := decodeEnvelope(t, resp)
		resp.Body.Close()
		if env.Code != CodeNotFound {
			t.Fatalf("%s %s code %q", c.method, c.path, env.Code)
		}
	}
}

// Shard endpoints keep the uniform 405+Allow contract.
func TestShardMethodNotAllowed(t *testing.T) {
	_, ts := shardTestServer(t, Config{ShardMode: true, NodeID: "n1"})
	resp, err := http.Get(ts.URL + "/v1/shard/tick")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/shard/tick status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("Allow header %q missing POST", allow)
	}
	env := decodeEnvelope(t, resp)
	if env.Code != CodeMethodNotAllowed {
		t.Fatalf("code %q", env.Code)
	}
}

// A shard tick groups pending reports into one VC per channel and
// returns the per-channel decisions in VC-ID order.
func TestShardTickPerChannelVCs(t *testing.T) {
	s, ts := shardTestServer(t, Config{
		ShardMode:    true,
		NodeID:       "n1",
		ExtraStreams: []*video.Video{extraStream(t, "music")},
	})

	for i, ch := range []string{"", "music", "", "music", "music"} {
		rep := validReport(strings.Repeat("0", 4) + string(rune('a'+i)))
		rep.ChannelID = ch
		if resp := postJSON(t, ts.URL+"/v1/report", rep, nil); resp.StatusCode != 200 {
			t.Fatalf("report %d status %d", i, resp.StatusCode)
		}
	}

	var tick ShardTickResponse
	if resp := postJSON(t, ts.URL+"/v1/shard/tick", ShardTickRequest{Node: "n1"}, &tick); resp.StatusCode != 200 {
		t.Fatalf("shard tick status %d", resp.StatusCode)
	}
	if tick.Node != "n1" || tick.Slot != 0 {
		t.Fatalf("tick header %+v", tick)
	}
	if len(tick.VCs) != 2 {
		t.Fatalf("got %d VCs, want 2 (one per channel): %+v", len(tick.VCs), tick.VCs)
	}
	if tick.VCs[0].VC != "ch" || tick.VCs[1].VC != "music" {
		t.Fatalf("VCs not in VC-ID order: %q, %q", tick.VCs[0].VC, tick.VCs[1].VC)
	}
	if tick.VCs[0].Reports != 2 || tick.VCs[1].Reports != 3 {
		t.Fatalf("per-VC report counts %d/%d, want 2/3", tick.VCs[0].Reports, tick.VCs[1].Reports)
	}
	if tick.Reports != 5 {
		t.Fatalf("aggregate reports %d", tick.Reports)
	}
	for _, vc := range tick.VCs {
		if len(vc.Canonical) == 0 {
			t.Fatalf("VC %q has no canonical decision bytes", vc.VC)
		}
	}
	if got := tick.VCs[0].Eligible + tick.VCs[1].Eligible; got != tick.Eligible {
		t.Fatalf("eligible aggregate %d != sum %d", tick.Eligible, got)
	}

	// The tick advanced the shared slot counter and the shard counters.
	var st StatusResponse
	getJSON(t, ts.URL+"/v1/status", &st)
	if st.Slot != 1 {
		t.Fatalf("slot %d after one shard tick", st.Slot)
	}
	if !st.ShardMode || st.ShardNodeID != "n1" {
		t.Fatalf("status shard fields %+v", st)
	}
	if st.ShardTicks != 1 || st.ShardVCsDecided != 2 {
		t.Fatalf("shard counters ticks=%d vcs=%d", st.ShardTicks, st.ShardVCsDecided)
	}
	if s.shardTicks.Load() != 1 {
		t.Fatalf("internal counter %d", s.shardTicks.Load())
	}
}

// With tracing on, every channel VC's audit record carries the shard
// tick's trace ID, as a standalone tick's record does — the link a
// router-to-shard trace follows into the audit log.
func TestShardTickAuditTraceID(t *testing.T) {
	dir := t.TempDir()
	_, ts := shardTestServer(t, Config{
		ShardMode:    true,
		NodeID:       "n1",
		AuditDir:     dir,
		TraceSample:  1,
		ExtraStreams: []*video.Video{extraStream(t, "music")},
	})
	for i, ch := range []string{"", "music", "music"} {
		rep := validReport("dev-" + string(rune('a'+i)))
		rep.ChannelID = ch
		postJSON(t, ts.URL+"/v1/report", rep, nil)
	}
	if resp := postJSON(t, ts.URL+"/v1/shard/tick", nil, nil); resp.StatusCode != 200 {
		t.Fatalf("shard tick status %d", resp.StatusCode)
	}
	recs, err := audit.ReadFile(filepath.Join(dir, "audit.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d audit records, want one per channel", len(recs))
	}
	for _, rec := range recs {
		if rec.TraceID == "" {
			t.Fatalf("audit record %s has no trace ID", rec.VC)
		}
		if rec.TraceID != recs[0].TraceID {
			t.Fatalf("records of one tick carry traces %s and %s", recs[0].TraceID, rec.TraceID)
		}
	}
}

// Mis-addressed or epoch-skewed ticks are refused with conflict codes
// so a router never merges a decision computed under a stale map.
func TestShardTickAddressAndEpochChecks(t *testing.T) {
	m := testShardMap(t, "n1", "n2")
	_, ts := shardTestServer(t, Config{ShardMode: true, NodeID: "n1", ShardMap: m})

	resp := postJSON(t, ts.URL+"/v1/shard/tick", ShardTickRequest{Node: "n2"}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("wrong-node status %d, want 409", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Code != CodeWrongShard {
		t.Fatalf("wrong-node code %q", env.Code)
	}

	resp = postJSON(t, ts.URL+"/v1/shard/tick", ShardTickRequest{Node: "n1", Epoch: "stale"}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-epoch status %d, want 409", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Code != CodeEpochMismatch {
		t.Fatalf("stale-epoch code %q", env.Code)
	}

	// Matching claims pass.
	resp = postJSON(t, ts.URL+"/v1/shard/tick", ShardTickRequest{Node: "n1", Epoch: m.Epoch()}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matched tick status %d", resp.StatusCode)
	}
	// Empty claims pass too (curl-friendly).
	resp = postJSON(t, ts.URL+"/v1/shard/tick", ShardTickRequest{}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unclaimed tick status %d", resp.StatusCode)
	}
}

// State export + handoff round-trip: a new owner warm-starts from the
// old owner's exported stream state.
func TestShardStateHandoffRoundTrip(t *testing.T) {
	_, oldTS := shardTestServer(t, Config{ShardMode: true, NodeID: "old"})
	_, newTS := shardTestServer(t, Config{ShardMode: true, NodeID: "new"})

	for i := 0; i < 3; i++ {
		postJSON(t, oldTS.URL+"/v1/report", validReport("dev-"+string(rune('a'+i))), nil)
		if resp := postJSON(t, oldTS.URL+"/v1/shard/tick", nil, nil); resp.StatusCode != 200 {
			t.Fatalf("tick %d status %d", i, resp.StatusCode)
		}
	}

	var state ShardStateResponse
	if resp := getJSON(t, oldTS.URL+"/v1/shard/state?key=ch:ch", &state); resp.StatusCode != 200 {
		t.Fatalf("state status %d", resp.StatusCode)
	}
	if state.Node != "old" || len(state.States) != 1 || state.States[0].Key != "ch:ch" {
		t.Fatalf("state response %+v", state)
	}

	// Filtering by an unknown key returns an empty set, not an error.
	var none ShardStateResponse
	getJSON(t, oldTS.URL+"/v1/shard/state?key=ch:nope", &none)
	if len(none.States) != 0 {
		t.Fatalf("unknown key exported %d states", len(none.States))
	}

	var ho ShardHandoffResponse
	if resp := postJSON(t, newTS.URL+"/v1/shard/handoff", ShardHandoffRequest{States: state.States}, &ho); resp.StatusCode != 200 {
		t.Fatalf("handoff status %d", resp.StatusCode)
	}
	if ho.Restored != 1 {
		t.Fatalf("restored %d states, want 1", ho.Restored)
	}
	var st StatusResponse
	getJSON(t, newTS.URL+"/v1/status", &st)
	if st.ShardHandoffRestored != 1 {
		t.Fatalf("status handoff counter %d", st.ShardHandoffRestored)
	}
}

// Shard-map exchange: GET 404s before a map is installed; POST
// installs one and future GETs serve its epoch and membership.
func TestShardMapExchange(t *testing.T) {
	s, ts := shardTestServer(t, Config{ShardMode: true, NodeID: "n1"})

	resp := getJSON(t, ts.URL+"/v1/shard/map", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no-map GET status %d, want 404", resp.StatusCode)
	}

	spec := testShardMap(t, "n1", "n2").Spec()
	var installed ShardMapResponse
	if resp := postJSON(t, ts.URL+"/v1/shard/map", spec, &installed); resp.StatusCode != 200 {
		t.Fatalf("install status %d", resp.StatusCode)
	}
	if installed.Epoch == "" || len(installed.Nodes) != 2 {
		t.Fatalf("install response %+v", installed)
	}

	var got ShardMapResponse
	if resp := getJSON(t, ts.URL+"/v1/shard/map", &got); resp.StatusCode != 200 {
		t.Fatalf("GET after install status %d", resp.StatusCode)
	}
	if got.Epoch != installed.Epoch {
		t.Fatalf("epoch changed between install and read")
	}
	if s.ShardMap() == nil || s.ShardMap().Epoch() != got.Epoch {
		t.Fatal("installed map not visible via accessor")
	}

	// A malformed spec is refused without clobbering the installed map.
	resp = postJSON(t, ts.URL+"/v1/shard/map", shard.Spec{}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty spec status %d, want 400", resp.StatusCode)
	}
	if s.ShardMap() == nil || s.ShardMap().Epoch() != got.Epoch {
		t.Fatal("bad spec clobbered the installed map")
	}
}

// The N=1 differential at the server layer: a single-channel shard
// tick must produce byte-identical canonical decision bytes to a
// standalone /v1/tick over the same reports, and its audit log must
// replay the same decision.
func TestShardTickMatchesStandaloneCanonical(t *testing.T) {
	standaloneDir, shardDir := t.TempDir(), t.TempDir()
	_, plainTS := shardTestServer(t, Config{AuditDir: standaloneDir})
	_, shardTS := shardTestServer(t, Config{ShardMode: true, NodeID: "n1", AuditDir: shardDir})

	for i := 0; i < 8; i++ {
		rep := validReport("dev-" + string(rune('a'+i)))
		rep.EnergyFrac = 0.1 + 0.1*float64(i%8)
		postJSON(t, plainTS.URL+"/v1/report", rep, nil)
		postJSON(t, shardTS.URL+"/v1/report", rep, nil)
	}

	var plainTick TickResponse
	if resp := postJSON(t, plainTS.URL+"/v1/tick", nil, &plainTick); resp.StatusCode != 200 {
		t.Fatalf("standalone tick status %d", resp.StatusCode)
	}
	var tick ShardTickResponse
	if resp := postJSON(t, shardTS.URL+"/v1/shard/tick", nil, &tick); resp.StatusCode != 200 {
		t.Fatalf("shard tick status %d", resp.StatusCode)
	}
	if len(tick.VCs) != 1 {
		t.Fatalf("single-channel shard tick produced %d VCs", len(tick.VCs))
	}
	// Both modes run one tick path, so over one VC the stats agree on
	// every field but the timings.
	untimed := func(st TickStats) TickStats {
		st.CompactSec, st.Phase1Sec, st.Phase2Sec, st.CPUSec, st.DurationSec = 0, 0, 0, 0, 0
		return st
	}
	if got, want := untimed(tick.Sched), untimed(plainTick.Sched); got != want {
		t.Fatalf("shard tick stats differ from standalone:\nshard:      %+v\nstandalone: %+v", got, want)
	}

	readRecord := func(dir string) *audit.Record {
		raw, err := os.ReadFile(filepath.Join(dir, "audit.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		line := bytes.TrimSpace(raw)
		rec, err := audit.Decode(line)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	plain := readRecord(standaloneDir)
	sharded := readRecord(shardDir)

	if plain.DecisionCanonical != sharded.DecisionCanonical {
		t.Fatalf("canonical decisions differ:\nstandalone: %q\nshard:      %q",
			plain.DecisionCanonical, sharded.DecisionCanonical)
	}
	if string(tick.VCs[0].Canonical) != sharded.DecisionCanonical {
		t.Fatal("shard tick response canonical differs from its own audit record")
	}
	if sharded.VC != "slot-0/ch" {
		t.Fatalf("shard audit VC %q, want slot-0/ch", sharded.VC)
	}
}
