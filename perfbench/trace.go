package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lpvs/internal/server"
	"lpvs/internal/wire"
)

// spanHeader carries the load generator's client span ID to the
// daemon, so the daemon-side span names its parent exactly.
const spanHeader = "X-Lpvsbench-Span"

// span is one timed interval at a layer boundary. Spans of one slot
// share Trace (the slot number); Parent links a span to the span that
// caused it. Times are nanoseconds since the tracer started.
type span struct {
	Trace     int    `json:"trace"`
	ID        uint64 `json:"id"`
	Parent    uint64 `json:"parent,omitempty"`
	Layer     string `json:"layer"`
	Name      string `json:"name"`
	Proc      string `json:"proc"`
	Key       string `json:"key,omitempty"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Status    int    `json:"status,omitempty"`
	Records   int    `json:"records,omitempty"`
	Bytes     int    `json:"bytes,omitempty"`
	EncodeNS  int64  `json:"encode_ns,omitempty"`
	Synthetic bool   `json:"synthetic,omitempty"`

	body []byte // a shard tick's response, decoded after the slot
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of a traced run in memory. Tracing is
// switched on for every other slot, so one run measures both the
// per-layer split and what tracing itself costs. A nil tracer is a run
// without tracing: no wrappers, no header, no spans.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	trace atomic.Int64
	root  atomic.Uint64
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
	mark  int // index of the current slot's first span
	ticks []tickSample
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// beginSlot starts slot k, traced or not, and returns its root span.
func (t *tracer) beginSlot(k int, on bool) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.mark = len(t.spans)
	t.mu.Unlock()
	root := span{Trace: k, ID: t.newID(), Layer: "loadgen", Name: "slot", Proc: "loadgen", Start: t.now()}
	t.trace.Store(int64(k))
	t.root.Store(root.ID)
	t.on.Store(on)
	return root
}

// endSlot stops tracing until the next slot and records the root span
// of a traced slot.
func (t *tracer) endSlot(root span, traced bool) {
	if t == nil {
		return
	}
	t.on.Store(false)
	if traced {
		root.End = t.now()
		t.record(root)
	}
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// clientSpan opens a load-generator span for one request; finish it
// with t.finish.
func (t *tracer) clientSpan(name, key string) span {
	return span{
		Trace: int(t.trace.Load()), ID: t.newID(), Parent: t.root.Load(),
		Layer: "client", Name: name, Proc: "loadgen", Key: key, Start: t.now(),
	}
}

func (t *tracer) finish(s span) {
	s.End = t.now()
	t.record(s)
}

// wrap puts a timing wrapper around one process's Handler: in a traced
// slot, and for every request stamped by a traced client span, the
// request becomes a span of the given layer, named by its route. Shard
// members also read the device ID from report and observe bodies,
// which is how their spans are matched to the router request that
// forwarded them.
func (t *tracer) wrap(proc, layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, parent, stamped := parseStamp(r.Header.Get(spanHeader))
		if !stamped {
			if !t.on.Load() {
				h.ServeHTTP(w, r)
				return
			}
			trace = int(t.trace.Load())
		}
		sp := span{Trace: trace, ID: t.newID(), Parent: parent, Layer: layer, Name: r.URL.Path, Proc: proc, Start: t.now()}
		if r.URL.Path == "/metrics" {
			sp.Layer = "obs"
		}
		sp.Key = r.URL.Query().Get("device")
		if layer == "shard" && r.Method == http.MethodPost {
			sp.Key = peekDevice(r)
		}
		sw := &spanWriter{ResponseWriter: w, status: http.StatusOK, tee: r.URL.Path == "/v1/shard/tick"}
		h.ServeHTTP(sw, r)
		sp.End = t.now()
		sp.Status = sw.status
		sp.body = sw.buf.Bytes()
		t.record(sp)
	})
}

// peekDevice reads a report or observe body, puts it back, and returns
// the first device ID in it ("" when there is none).
func peekDevice(r *http.Request) string {
	body, err := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return ""
	}
	switch r.URL.Path {
	case "/v1/report":
		if r.Header.Get("Content-Type") != wire.ContentType {
			return ""
		}
		dec := wire.NewDecoder(bytes.NewReader(body))
		var rec wire.ReportRequest
		if _, _, err := dec.Begin(); err != nil || dec.Next(&rec) != nil {
			return ""
		}
		return rec.DeviceID
	case "/v1/observe":
		var obs server.ObserveRequest
		if json.Unmarshal(body, &obs) != nil {
			return ""
		}
		return obs.DeviceID
	}
	return ""
}

// spanWriter records the status code and, when tee is set, a copy of
// the response body.
type spanWriter struct {
	http.ResponseWriter
	status int
	tee    bool
	buf    bytes.Buffer
}

func (w *spanWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *spanWriter) Write(p []byte) (int, error) {
	if w.tee {
		w.buf.Write(p)
	}
	return w.ResponseWriter.Write(p)
}

// stamper adds the worker's current trace and client span ID to each
// outgoing request, as "trace.span".
type stamper struct {
	base http.RoundTripper
	w    *worker
}

func (s stamper) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := s.w.cur.Load(); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(s.w.curTrace.Load(), 10)+"."+strconv.FormatUint(id, 10))
	}
	return s.base.RoundTrip(r)
}

// parseStamp splits a span header into its trace and span ID.
func parseStamp(h string) (trace int, id uint64, ok bool) {
	ts, is, found := strings.Cut(h, ".")
	if !found {
		return 0, 0, false
	}
	t, err1 := strconv.Atoi(ts)
	i, err2 := strconv.ParseUint(is, 10, 64)
	return t, i, err1 == nil && err2 == nil
}

// tickSample is one traced scheduling tick: its handler time and the
// TickStats it returned.
type tickSample struct {
	trace     int
	proc      string
	handlerNS int64
	st        server.TickStats
	// par is how many VCs the pool solved at once: a shard tick's
	// phase times are sums over its channel VCs, which run on up to
	// GOMAXPROCS workers, so their wall time is the sum over par.
	par int
}

// schedSpans turns a tick's TickStats into synthetic child spans of the
// tick handler span: compact, phase 1 and phase 2 laid end to end from
// the handler's start, each its wall-time share over the vcs channel
// VCs the tick solved. It also keeps the tick as a tickSample.
func (t *tracer) schedSpans(parent *span, st server.TickStats, vcs int) []span {
	par := max(1, min(vcs, runtime.GOMAXPROCS(0)))
	t.ticks = append(t.ticks, tickSample{trace: parent.Trace, proc: parent.Proc, handlerNS: parent.dur(), st: st, par: par})
	var out []span
	at := parent.Start
	for _, ph := range []struct {
		name string
		sec  float64
	}{{"compact", st.CompactSec}, {"phase1", st.Phase1Sec}, {"phase2", st.Phase2Sec}} {
		d := int64(ph.sec * 1e9 / float64(par))
		out = append(out, span{
			Trace: parent.Trace, ID: t.newID(), Parent: parent.ID, Layer: "scheduler",
			Name: ph.name, Proc: parent.Proc, Start: at, End: at + d, Synthetic: true,
		})
		at += d
	}
	return out
}

// link completes the spans recorded since the slot began, while no
// request is in flight: resolve fills in parents the daemons could not
// know and returns synthetic spans to add.
func (t *tracer) link(resolve func(spans []span) []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	extra := resolve(t.spans[t.mark:])
	t.spans = append(t.spans, extra...)
}

// writeJSONL writes the stamp and then every span, one JSON object a
// line.
func (t *tracer) writeJSONL(path string, st stamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"env": st}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
