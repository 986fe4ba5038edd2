package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// fleetServer builds a two-channel daemon with per-VC series enabled.
func fleetServer(tb testing.TB, budget int) (*Server, *httptest.Server) {
	tb.Helper()
	extra, err := video.Generate(stats.NewRNG(2), video.DefaultGenConfig("music", video.Music, 60))
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{
		Stream:        testStream(tb),
		ExtraStreams:  []*video.Video{extra},
		ServerStreams: -1,
		Lambda:        1,
		VCLabelBudget: budget,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts
}

// scrape fetches /metrics and returns the exposition text.
func scrape(tb testing.TB, url string) string {
	tb.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return string(body)
}

// metricValue extracts one sample line's value from an exposition.
func metricValue(tb testing.TB, text, series string) float64 {
	tb.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				tb.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	tb.Fatalf("series %q not in exposition", series)
	return 0
}

func reportOn(id, channel string) ReportRequest {
	r := validReport(id)
	r.ChannelID = channel
	return r
}

func TestFleetEndpointMatchesRegistry(t *testing.T) {
	_, ts := fleetServer(t, 64)

	// Three devices on the default channel, two on "music", one that
	// switches from the default channel to "music", then a tick.
	for i := 0; i < 3; i++ {
		if resp := postJSON(t, ts.URL+"/v1/report", validReport(fmt.Sprintf("d%d", i)), nil); resp.StatusCode != 200 {
			t.Fatalf("report: %d", resp.StatusCode)
		}
	}
	for i := 0; i < 2; i++ {
		if resp := postJSON(t, ts.URL+"/v1/report", reportOn(fmt.Sprintf("m%d", i), "music"), nil); resp.StatusCode != 200 {
			t.Fatalf("report: %d", resp.StatusCode)
		}
	}
	for _, ch := range []string{"ch", "music"} {
		if resp := postJSON(t, ts.URL+"/v1/report", reportOn("sw", ch), nil); resp.StatusCode != 200 {
			t.Fatalf("report: %d", resp.StatusCode)
		}
	}
	if resp := postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil); resp.StatusCode != 200 {
		t.Fatalf("tick: %d", resp.StatusCode)
	}

	var fleet FleetResponse
	if resp := getJSON(t, ts.URL+"/v1/fleet", &fleet); resp.StatusCode != 200 {
		t.Fatalf("fleet: %d", resp.StatusCode)
	}
	if fleet.VCLabelBudget != 64 {
		t.Fatalf("vc_label_budget = %d", fleet.VCLabelBudget)
	}
	if len(fleet.Channels) != 2 || fleet.Channels[0].Channel != "ch" || fleet.Channels[1].Channel != "music" {
		t.Fatalf("channels = %+v", fleet.Channels)
	}
	if fleet.Channels[0].Devices != 3 || fleet.Channels[1].Devices != 3 {
		t.Fatalf("device counts = %+v", fleet.Channels)
	}
	if fleet.Channels[0].Admitted != 3 || fleet.Channels[1].Admitted != 3 {
		t.Fatalf("admitted counts = %+v", fleet.Channels)
	}
	if len(fleet.Streams) != 1 || fleet.Streams[0].Key != "edge" || fleet.Streams[0].Ticks != 1 {
		t.Fatalf("streams = %+v", fleet.Streams)
	}

	// The registry's labeled series must agree with the fleet rollup.
	text := scrape(t, ts.URL)
	for _, ch := range []string{"ch", "music"} {
		if got := metricValue(t, text, fmt.Sprintf("lpvs_vc_devices{vc=%q}", ch)); got != 3 {
			t.Errorf("lpvs_vc_devices{vc=%q} = %v, want 3", ch, got)
		}
	}
	for _, c := range fleet.Channels {
		label := fmt.Sprintf("{vc=%q}", c.Channel)
		if got := metricValue(t, text, "lpvs_vc_devices"+label); got != float64(c.Devices) {
			t.Errorf("lpvs_vc_devices%s = %v, fleet says %d", label, got, c.Devices)
		}
		if got := metricValue(t, text, "lpvs_vc_admitted_devices"+label); got != float64(c.Admitted) {
			t.Errorf("lpvs_vc_admitted_devices%s = %v, fleet says %d", label, got, c.Admitted)
		}
		if got := metricValue(t, text, "lpvs_vc_selected_devices"+label); got != float64(c.Selected) {
			t.Errorf("lpvs_vc_selected_devices%s = %v, fleet says %d", label, got, c.Selected)
		}
		if got := metricValue(t, text, "lpvs_vc_gamma_mean"+label); got != c.GammaMean {
			t.Errorf("lpvs_vc_gamma_mean%s = %v, fleet says %v", label, got, c.GammaMean)
		}
	}
	for _, vs := range fleet.Streams {
		label := fmt.Sprintf("{vc=%q}", vs.Key)
		if got := metricValue(t, text, "lpvs_vc_ticks_total"+label); got != float64(vs.Ticks) {
			t.Errorf("lpvs_vc_ticks_total%s = %v, fleet says %d", label, got, vs.Ticks)
		}
		if got := metricValue(t, text, "lpvs_vc_plan_cache_hit_rate"+label); got != vs.CacheHitRate() {
			t.Errorf("lpvs_vc_plan_cache_hit_rate%s = %v, fleet says %v", label, got, vs.CacheHitRate())
		}
	}
	if got := metricValue(t, text, "lpvs_series_dropped_total"); got != float64(fleet.SeriesDropped) {
		t.Errorf("lpvs_series_dropped_total = %v, fleet says %d", got, fleet.SeriesDropped)
	}
}

func TestSLOEndpointMatchesRegistry(t *testing.T) {
	_, ts := fleetServer(t, 64)
	if resp := postJSON(t, ts.URL+"/v1/report", validReport("d0"), nil); resp.StatusCode != 200 {
		t.Fatalf("report: %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil); resp.StatusCode != 200 {
		t.Fatalf("tick: %d", resp.StatusCode)
	}
	var got SLOResponse
	if resp := getJSON(t, ts.URL+"/v1/slo", &got); resp.StatusCode != 200 {
		t.Fatalf("slo: %d", resp.StatusCode)
	}
	names := map[string]bool{}
	for _, st := range got.Objectives {
		names[st.Name] = true
		if st.Alarming {
			t.Errorf("objective %s alarming on a healthy daemon: %+v", st.Name, st)
		}
		if len(st.Windows) != 2 {
			t.Errorf("objective %s windows = %+v", st.Name, st.Windows)
		}
	}
	for _, want := range []string{"tick-latency", "degraded-ticks", "shed-requests"} {
		if !names[want] {
			t.Errorf("objective %q missing from /v1/slo: %v", want, names)
		}
	}
	// The tick-latency objective saw exactly the one tick.
	for _, st := range got.Objectives {
		if st.Name == "tick-latency" && st.TotalEvents != 1 {
			t.Errorf("tick-latency total events = %v, want 1", st.TotalEvents)
		}
	}
	// Registry gauges agree with the endpoint.
	text := scrape(t, ts.URL)
	for _, st := range got.Objectives {
		label := fmt.Sprintf("{slo=%q}", st.Name)
		if v := metricValue(t, text, "lpvs_slo_target"+label); v != st.Target {
			t.Errorf("lpvs_slo_target%s = %v, endpoint says %v", label, v, st.Target)
		}
		if v := metricValue(t, text, "lpvs_slo_alarm"+label); v != 0 {
			t.Errorf("lpvs_slo_alarm%s = %v, want 0", label, v)
		}
	}
}

func TestReadyzDistinctFromHealthz(t *testing.T) {
	s, ts := fleetServer(t, 0)
	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s status %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/readyz", http.StatusOK)
	check("/healthz", http.StatusOK)
	s.SetReady(false)
	// Draining: readiness drops, liveness must not.
	check("/readyz", http.StatusServiceUnavailable)
	check("/healthz", http.StatusOK)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.Ready || rr.Reason != "draining" {
		t.Fatalf("readyz body = %+v", rr)
	}
	s.SetReady(true)
	check("/readyz", http.StatusOK)
}

func TestVCLabelBudgetZeroDisablesSeries(t *testing.T) {
	_, ts := fleetServer(t, 0)
	if resp := postJSON(t, ts.URL+"/v1/report", validReport("d0"), nil); resp.StatusCode != 200 {
		t.Fatalf("report: %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil); resp.StatusCode != 200 {
		t.Fatalf("tick: %d", resp.StatusCode)
	}
	text := scrape(t, ts.URL)
	if strings.Contains(text, "lpvs_vc_") {
		t.Fatal("budget 0 still exposes lpvs_vc_ series")
	}
	// The fleet endpoint itself stays available (JSON is not labeled
	// series) and reports the disabled budget.
	var fleet FleetResponse
	if resp := getJSON(t, ts.URL+"/v1/fleet", &fleet); resp.StatusCode != 200 {
		t.Fatalf("fleet: %d", resp.StatusCode)
	}
	if fleet.VCLabelBudget != 0 || len(fleet.Channels) != 1 {
		t.Fatalf("fleet = %+v", fleet)
	}
}

func TestVCLabelBudgetCapsAndCounts(t *testing.T) {
	// Budget 1: the second channel's series are refused and counted.
	_, ts := fleetServer(t, 1)
	if resp := postJSON(t, ts.URL+"/v1/report", validReport("d0"), nil); resp.StatusCode != 200 {
		t.Fatalf("report: %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/report", reportOn("m0", "music"), nil); resp.StatusCode != 200 {
		t.Fatalf("report: %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil); resp.StatusCode != 200 {
		t.Fatalf("tick: %d", resp.StatusCode)
	}
	var fleet FleetResponse
	if resp := getJSON(t, ts.URL+"/v1/fleet", &fleet); resp.StatusCode != 200 {
		t.Fatalf("fleet: %d", resp.StatusCode)
	}
	if fleet.SeriesDropped == 0 {
		t.Fatal("budget 1 with two channels dropped no series")
	}
	// The registry-wide budget also caps other labeled families (HTTP
	// route metrics), and every request after the fleet fetch may add
	// drops — so the scrape-time counter is >= the fleet snapshot.
	text := scrape(t, ts.URL)
	if got := metricValue(t, text, "lpvs_series_dropped_total"); got < float64(fleet.SeriesDropped) {
		t.Fatalf("dropped counter = %v, fleet says %d", got, fleet.SeriesDropped)
	}
	// Exactly one channel made it into each per-channel family.
	if strings.Count(text, "\nlpvs_vc_devices{") != 1 {
		t.Fatalf("per-channel device series != 1:\n%s", text)
	}
}

// TestConcurrentFleetScrape hammers reports, ticks, chunk fetches, and
// every telemetry endpoint concurrently — the -race proof that per-VC
// series emission from the tick path and scrapes are safe together.
func TestConcurrentFleetScrape(t *testing.T) {
	_, ts := fleetServer(t, 64)
	const loops = 20
	var wg sync.WaitGroup
	get := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	// Posting from worker goroutines must not touch testing.T, so this
	// helper swallows transport errors instead of Fatal-ing.
	post := func(path string, body any) {
		buf, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				ch := ""
				if i%2 == 0 {
					ch = "music"
				}
				post("/v1/report", reportOn(fmt.Sprintf("w%d-d%d", w, i%5), ch))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			post("/v1/tick", struct{}{})
		}
	}()
	for _, path := range []string{"/metrics", "/v1/fleet", "/v1/slo", "/v1/status", "/readyz"} {
		path := path
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loops; i++ {
				get(path)
			}
		}()
	}
	wg.Wait()
	// One final coherent pass.
	var fleet FleetResponse
	if resp := getJSON(t, ts.URL+"/v1/fleet", &fleet); resp.StatusCode != 200 {
		t.Fatalf("fleet after hammer: %d", resp.StatusCode)
	}
	if len(fleet.Streams) != 1 || fleet.Streams[0].Ticks == 0 {
		t.Fatalf("streams after hammer = %+v", fleet.Streams)
	}
}

// TestPosteriorAggregatesMatchRecount drives a seeded random sequence
// of device arrivals, channel switches, accepted and rejected
// observations, ticks and snapshot restores over three channels. After
// every step the per-channel posterior aggregates the daemon maintains
// must match a full recount over its devices.
func TestPosteriorAggregatesMatchRecount(t *testing.T) {
	channels := []string{"ch", "music", "news"}
	var extra []*video.Video
	for i, name := range channels[1:] {
		v, err := video.Generate(stats.NewRNG(int64(2+i)), video.DefaultGenConfig(name, video.Music, 60))
		if err != nil {
			t.Fatal(err)
		}
		extra = append(extra, v)
	}
	snapDir := t.TempDir()
	boot := func() (*Server, *httptest.Server) {
		s, err := New(Config{Stream: testStream(t), ExtraStreams: extra, ServerStreams: -1,
			Lambda: 1, SnapshotDir: snapDir})
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}
	s, ts := boot()
	defer func() { ts.Close(); s.Close() }()

	rng := rand.New(rand.NewPCG(13, 7))
	var ids []string
	chOf := map[string]string{}
	report := func(id, ch string) {
		if resp := postJSON(t, ts.URL+"/v1/report", reportOn(id, ch), nil); resp.StatusCode != 200 {
			t.Fatalf("report %s on %s: %d", id, ch, resp.StatusCode)
		}
		chOf[id] = ch
	}
	const (
		opNew = iota
		opSwitch
		opObserve
		opReject
		opTick
		opRestore
	)
	var done [opRestore + 1]int
	for step := 0; step < 240; step++ {
		op := rng.IntN(opRestore)
		switch {
		case step%80 == 79:
			op = opRestore
		case len(ids) == 0:
			op = opNew
		}
		switch op {
		case opNew:
			id := fmt.Sprintf("d%03d", len(ids))
			ids = append(ids, id)
			report(id, channels[rng.IntN(len(channels))])
		case opSwitch:
			id := ids[rng.IntN(len(ids))]
			cur := slices.Index(channels, chOf[id])
			report(id, channels[(cur+1+rng.IntN(len(channels)-1))%len(channels)])
		case opObserve:
			req := ObserveRequest{DeviceID: ids[rng.IntN(len(ids))], Reduction: 0.1 + 0.4*rng.Float64()}
			if resp := postJSON(t, ts.URL+"/v1/observe", req, nil); resp.StatusCode != 200 {
				t.Fatalf("observe: %d", resp.StatusCode)
			}
		case opReject:
			// 0 and 1 are outside (0, 1): the estimator stays untouched.
			req := ObserveRequest{DeviceID: ids[rng.IntN(len(ids))], Reduction: float64(rng.IntN(2))}
			if resp := postJSON(t, ts.URL+"/v1/observe", req, nil); resp.StatusCode != 400 {
				t.Fatalf("rejected observe: %d", resp.StatusCode)
			}
		case opTick:
			if resp := postJSON(t, ts.URL+"/v1/tick", struct{}{}, nil); resp.StatusCode != 200 {
				t.Fatalf("tick: %d", resp.StatusCode)
			}
		case opRestore:
			if err := s.SaveSnapshot(); err != nil {
				t.Fatal(err)
			}
			ts.Close()
			s.Close()
			s, ts = boot()
			if s.restorePath != RestoreSnapshot {
				t.Fatalf("restore path %q: %s", s.restorePath, s.restoreDetail)
			}
		}
		done[op]++
		checkPosteriorAggs(t, s, step)
	}
	for op, n := range done {
		if n == 0 {
			t.Fatalf("op %d never ran", op)
		}
	}
}

// checkPosteriorAggs compares s.posterior with a recount over
// s.devices: counts exactly, sums within 1e-9 relative.
func checkPosteriorAggs(t *testing.T, s *Server, step int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	want := map[string]*posteriorAgg{}
	for _, st := range s.devices {
		w := want[st.channel]
		if w == nil {
			w = &posteriorAgg{}
			want[st.channel] = w
		}
		w.devices++
		w.observations += st.estimator.Observations()
		w.gamma += st.estimator.Gamma()
		w.sigma += st.estimator.Sigma()
		w.uncer += st.estimator.Uncertainty()
	}
	for ch, got := range s.posterior {
		if want[ch] == nil && *got != (posteriorAgg{}) {
			t.Fatalf("step %d: channel %q has no devices but aggregate %+v", step, ch, *got)
		}
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	for ch, w := range want {
		got := s.posterior[ch]
		if got == nil {
			t.Fatalf("step %d: channel %q missing from the aggregates", step, ch)
		}
		if got.devices != w.devices || got.observations != w.observations ||
			!near(got.gamma, w.gamma) || !near(got.sigma, w.sigma) || !near(got.uncer, w.uncer) {
			t.Fatalf("step %d: channel %q aggregate %+v, recount %+v", step, ch, *got, *w)
		}
	}
}
