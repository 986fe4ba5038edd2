package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"lpvs/internal/scheduler"
	"lpvs/internal/stats"
	"lpvs/internal/video"
	"lpvs/internal/wire"
)

// benchTickServer builds a two-channel daemon that knows known devices
// and returns the server plus the pending batch of the first nDev of
// them, so iterations can refill the (tick-consumed) queue off the
// timer. The batch's energy levels span the same range for any known.
func benchTickServer(b *testing.B, budget, nDev, known int) (*Server, map[string]scheduler.Request) {
	b.Helper()
	extra, err := video.Generate(stats.NewRNG(2), video.DefaultGenConfig("music", video.Music, 60))
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{
		Stream:        testStream(b),
		ExtraStreams:  []*video.Video{extra},
		ServerStreams: -1,
		Lambda:        1,
		VCLabelBudget: budget,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.mu.Lock()
	for i := 0; i < known; i++ {
		req := validReport(deviceID(i))
		req.EnergyFrac = 0.05 + 0.9*float64(i%nDev)/float64(nDev)
		if i%2 == 1 {
			req.ChannelID = "music"
		}
		if apiErr := s.acceptReportLocked(req); apiErr != nil {
			s.mu.Unlock()
			b.Fatalf("stage report %d: %v", i, apiErr.Message)
		}
	}
	saved := make(map[string]scheduler.Request, nDev)
	for i := 0; i < nDev; i++ {
		id := deviceID(i)
		saved[id] = s.pending[id]
	}
	clear(s.pending)
	s.mu.Unlock()
	return s, saved
}

func deviceID(i int) string {
	// Fixed-width IDs keep the scheduler's sort order stable across runs.
	const digits = "0123456789"
	buf := []byte("dev-00000")
	for p := len(buf) - 1; i > 0; p-- {
		buf[p] = digits[i%10]
		i /= 10
	}
	return string(buf)
}

// ingestReports builds nDev valid reports spread across energy levels,
// mirroring what a fleet posts every slot.
func ingestReports(nDev int) []ReportRequest {
	reqs := make([]ReportRequest, nDev)
	for i := range reqs {
		req := validReport(deviceID(i))
		req.EnergyFrac = 0.05 + 0.9*float64(i)/float64(nDev)
		reqs[i] = req
	}
	return reqs
}

// BenchmarkIngest measures POST /v1/report batch throughput for the
// JSON and binary codecs at fleet scale, plus the pooled steady-state
// decode in isolation. The codec cases report reports/s (picked up by
// lpvs-benchjson into BENCH_ingest.json); decode-steady's allocs/op is
// the zero-alloc contract — the pooled decoder with a warm intern
// table must stay at 0 allocs (budget ≤2) per decoded batch.
func BenchmarkIngest(b *testing.B) {
	for _, nDev := range []int{10_000, 100_000} {
		reqs := ingestReports(nDev)
		jsonBody, err := json.Marshal(reqs)
		if err != nil {
			b.Fatal(err)
		}
		wireBody, err := wire.AppendBatch(nil, reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, bc := range []struct {
			name string
			ct   string
			body []byte
		}{
			{"json", "application/json", jsonBody},
			{"binary", wire.ContentType, wireBody},
		} {
			b.Run(fmt.Sprintf("%s-%dk", bc.name, nDev/1000), func(b *testing.B) {
				s, err := New(Config{Stream: testStream(b), ServerStreams: -1, Lambda: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					req := httptest.NewRequest("POST", "/v1/report", bytes.NewReader(bc.body))
					req.Header.Set("Content-Type", bc.ct)
					rec := httptest.NewRecorder()
					s.handleReport(rec, req)
					if rec.Code != 200 {
						b.Fatalf("report: HTTP %d: %s", rec.Code, rec.Body.String())
					}
				}
				b.ReportMetric(float64(nDev)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
			})
		}
	}

	b.Run("decode-steady", func(b *testing.B) {
		const nDev = 512
		reqs := ingestReports(nDev)
		body, err := wire.AppendBatch(nil, reqs)
		if err != nil {
			b.Fatal(err)
		}
		rd := bytes.NewReader(body)
		dec := wire.NewDecoder(rd)
		out := make([]ReportRequest, nDev)
		decode := func() {
			rd.Reset(body)
			dec.Reset(rd)
			if _, _, err := dec.Begin(); err != nil {
				b.Fatal(err)
			}
			for i := range out {
				if err := dec.Next(&out[i]); err != nil {
					b.Fatal(err)
				}
			}
			if err := dec.Finish(); err != nil {
				b.Fatal(err)
			}
		}
		decode() // warm the intern table
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			decode()
		}
		b.ReportMetric(float64(nDev)*float64(b.N)/b.Elapsed().Seconds(), "reports/s")
	})
}

// BenchmarkFleetTick measures a full 10k-device tick with per-VC fleet
// telemetry off (budget 0: the zero-overhead path — metrics.vc is nil
// and no labeled series exist) versus on (budget 64: every per-VC
// family labeled and the fleet aggregation live). The recorded figures
// live in BENCH_observability.json; the contract is budget0 within
// noise of the pre-telemetry tick and budget64 within ~5% of budget0.
// known40k is budget64 in a daemon that knows 4x more devices than
// report in the tick, as churn leaves behind: tick telemetry must not
// grow with the devices that stay silent.
func BenchmarkFleetTick(b *testing.B) {
	const nDev = 10_000
	for _, bc := range []struct {
		name   string
		budget int
		known  int
	}{
		{"budget0", 0, nDev},
		{"budget64", 64, nDev},
		{"known40k", 64, 4 * nDev},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, saved := benchTickServer(b, bc.budget, nDev, bc.known)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.mu.Lock()
				for k, v := range saved {
					s.pending[k] = v
				}
				s.mu.Unlock()
				b.StartTimer()
				rec := httptest.NewRecorder()
				s.handleTick(rec, httptest.NewRequest("POST", "/v1/tick", nil))
				if rec.Code != 200 {
					b.Fatalf("tick: HTTP %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}
