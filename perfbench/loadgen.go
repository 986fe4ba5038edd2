package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lpvs/internal/client"
	"lpvs/internal/device"
	"lpvs/internal/server"
)

// worker is one of the load generator's connections: it issues one
// request at a time, so the generator never has more requests in
// flight than it has workers.
type worker struct {
	id     int
	hc     *http.Client
	caller *client.Caller // ticks, scrapes and reshards
	// batcher carries report batches; ReportBatch only rides its
	// transport, the reports belong to many devices.
	batcher *client.Client
	tr      *tracer
	// cur and curTrace name the client span stamped on outgoing
	// requests (0 = none).
	cur      atomic.Uint64
	curTrace atomic.Int64
	encBuf   []byte
	lat      latencies // this worker's timed samples
	// scrapeBytes and scrapeSeries describe each /metrics scrape.
	scrapeBytes, scrapeSeries []float64
	// tickSched keeps the scheduler breakdown of the worker's traced
	// ticks, by client span.
	tickSched []tickSpan

	attempted, failed int
	problems          []string
}

// tickSpan is one traced tick's client span and its TickStats.
type tickSpan struct {
	id uint64
	st server.TickStats
}

// loadgen owns the workers and the shared transport that caps them at
// one connection each.
type loadgen struct {
	tr *http.Transport
	ws []*worker
}

func newLoadgen(target string, conns int, tr *tracer, anyDev *device.Device) (*loadgen, error) {
	base := http.DefaultTransport.(*http.Transport).Clone()
	base.Proxy = nil
	base.MaxConnsPerHost = conns
	base.MaxIdleConnsPerHost = conns
	lg := &loadgen{tr: base}
	for i := 0; i < conns; i++ {
		w := &worker{id: i, tr: tr}
		var rt http.RoundTripper = base
		if tr != nil {
			rt = stamper{base: base, w: w}
		}
		w.hc = &http.Client{Transport: rt, Timeout: 60 * time.Second}
		var err error
		if w.caller, err = client.NewCaller(target, client.WithHTTPClient(w.hc)); err != nil {
			return nil, err
		}
		if w.batcher, err = client.New(target, anyDev, w.hc); err != nil {
			return nil, err
		}
		lg.ws = append(lg.ws, w)
	}
	return lg, nil
}

func (lg *loadgen) close() { lg.tr.CloseIdleConnections() }

// parallel runs fn on every worker at once and waits for all of them.
func (lg *loadgen) parallel(fn func(w *worker)) {
	var wg sync.WaitGroup
	for _, w := range lg.ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// call times one request. In a traced slot it records a client span
// and stamps its ID on the request; enc is the wire-encode time spent
// before the call, kept on the span so transport wait can exclude it.
func (w *worker) call(name, key string, enc int64, fn func() error) (time.Duration, error) {
	traced, trace := w.slotTrace()
	d, _, err := w.callIn(traced, trace, name, key, enc, fn)
	return d, err
}

// slotTrace reports whether the current closed-loop slot is traced, and
// its trace ID.
func (w *worker) slotTrace() (bool, int) {
	if !w.tr.active() {
		return false, 0
	}
	return true, int(w.tr.trace.Load())
}

// callIn is call with the trace chosen by the caller; it also returns
// the client span's ID (0 when untraced).
func (w *worker) callIn(traced bool, trace int, name, key string, enc int64, fn func() error) (time.Duration, uint64, error) {
	var sp span
	if traced {
		sp = w.tr.clientSpan(name, key)
		sp.Trace = trace
		sp.EncodeNS = enc
		w.curTrace.Store(int64(trace))
		w.cur.Store(sp.ID)
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if traced {
		w.cur.Store(0)
		w.tr.finish(sp)
	}
	w.attempted++
	if err != nil {
		w.failed++
	}
	return d, sp.ID, err
}

// problem notes a failed output check; the first few are printed.
func (w *worker) problem(format string, args ...any) {
	if len(w.problems) < 8 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

// scrape GETs /metrics and records its time, size and sample-line
// count.
func (w *worker) scrape(base string) error {
	traced, trace := w.slotTrace()
	return w.scrapeIn(traced, trace, base)
}

func (w *worker) scrapeIn(traced bool, trace int, base string) error {
	var size, series int
	d, _, err := w.callIn(traced, trace, "/metrics", "", 0, func() error {
		resp, err := w.hc.Get(base + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("metrics: status %d", resp.StatusCode)
		}
		size = len(body)
		for _, line := range strings.Split(string(body), "\n") {
			if line != "" && line[0] != '#' {
				series++
			}
		}
		return nil
	})
	if err == nil {
		w.lat.scrape = append(w.lat.scrape, d)
		w.scrapeBytes = append(w.scrapeBytes, float64(size))
		w.scrapeSeries = append(w.scrapeSeries, float64(series))
	}
	return err
}

// reset drops what the worker recorded during set-up.
func (w *worker) reset() {
	w.lat = latencies{}
	w.scrapeBytes, w.scrapeSeries = nil, nil
	w.attempted, w.failed = 0, 0
}

// counters folds the workers' request counts and check failures.
func (lg *loadgen) counters() (attempted, failed int, problems []string) {
	for _, w := range lg.ws {
		attempted += w.attempted
		failed += w.failed
		problems = append(problems, w.problems...)
	}
	return attempted, failed, problems
}

// merged gathers every worker's samples into one set.
func (lg *loadgen) merged(into *latencies) {
	for _, w := range lg.ws {
		into.report = append(into.report, w.lat.report...)
		into.decision = append(into.decision, w.lat.decision...)
		into.chunk = append(into.chunk, w.lat.chunk...)
		into.observe = append(into.observe, w.lat.observe...)
		into.scrape = append(into.scrape, w.lat.scrape...)
	}
}

// scrapes gathers every worker's scrape sizes and sample counts.
func (lg *loadgen) scrapes() (bytes, series []float64) {
	for _, w := range lg.ws {
		bytes = append(bytes, w.scrapeBytes...)
		series = append(series, w.scrapeSeries...)
	}
	return bytes, series
}
