package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"
)

// hostProbe times a fixed reference exchange between the slots of a
// closed loop. On a shared virtual host the same code runs a third
// slower or more in one minute than in the next, so a timing from one
// run cannot be compared with one from another. Scaling a run's
// timings by refProbeMS over the probe's time around them gives them as
// they would read on a host where the probe takes refProbeMS, which
// cancels most of that drift.
//
// It is sampled before every slot and after the last.
//
// The probe has the closed loop's shape without any of lpvs: a sample
// sends probeRequests GETs back to back on each of the loop's
// connections to a standard-library HTTP server on loopback, whose
// handler runs a fixed CPU kernel, and times them all. So it slows
// down with the host the way the loop does, in CPU, in wake-ups and
// in the second vCPU, and no change to lpvs can move it. It allocates
// a few hundred objects a slot against the loop's hundreds of
// thousands.
//
// report-stream uses no probe and reports its _at_ref metrics as
// measured: its fixed rate leaves the cores mostly idle, and its
// timings did not follow a probe's (see README.md).
type hostProbe struct {
	srv     *http.Server
	served  chan struct{}
	url     string
	clients []*http.Client
	lanes   chan *probeKernel

	samples []time.Duration
}

const (
	probeRequests = 4 // per connection and sample
	probeKeys     = 3000
	probeBytes    = 8 << 10
	// refProbeMS is the reference host's median probe time: about
	// what the probe takes on a 2-core AMD EPYC virtual machine.
	refProbeMS = 1.5
)

// newHostProbe starts the probe's server with one client (its own
// connection) and one kernel per load-generator connection.
func newHostProbe(conns int) (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &hostProbe{
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String() + "/probe",
		lanes:  make(chan *probeKernel, conns),
	}
	for i := 0; i < conns; i++ {
		p.lanes <- &probeKernel{
			keys: make([]uint32, probeKeys),
			m:    make(map[uint32]uint32, probeKeys),
			buf:  make([]byte, probeBytes),
		}
		p.clients = append(p.clients, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		})
	}
	p.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		k := <-p.lanes
		k.run()
		p.lanes <- k
		io.WriteString(w, "ok")
	})}
	go func() {
		defer close(p.served)
		p.srv.Serve(ln)
	}()
	return p, nil
}

// close stops the server and waits until it has returned.
func (p *hostProbe) close() {
	p.srv.Close()
	<-p.served
	for _, c := range p.clients {
		c.CloseIdleConnections()
	}
}

// sample runs one exchange on every connection at once and records
// the wall time until the last one ends.
func (p *hostProbe) sample() error {
	start := time.Now()
	errs := make([]error, len(p.clients))
	var wg sync.WaitGroup
	for i, c := range p.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < probeRequests && errs[i] == nil; j++ {
				errs[i] = probeGet(c, p.url)
			}
		}()
	}
	wg.Wait()
	p.samples = append(p.samples, time.Since(start))
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("host probe: %w", err)
		}
	}
	return nil
}

func probeGet(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// probeKernel holds one handler's buffers for the kernel.
type probeKernel struct {
	keys []uint32
	m    map[uint32]uint32
	buf  []byte
	sink uint32
}

// run is the kernel: a map build and lookups, a sort and a hash — the
// kinds of work the daemons do. It allocates nothing.
func (k *probeKernel) run() {
	x := uint32(2463534242)
	for i := range k.keys {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k.keys[i] = x
	}
	clear(k.m)
	for i, key := range k.keys {
		k.m[key%4096] += uint32(i)
	}
	for _, key := range k.keys {
		k.sink += k.m[key%4096]
	}
	slices.Sort(k.keys)
	sum := sha256.Sum256(k.buf)
	k.sink += k.keys[0] + uint32(sum[0])
}

// ms is the median probe time in milliseconds, and the sample count.
func (p *hostProbe) ms() (float64, int) {
	return median(ms(p.samples)), len(p.samples)
}

// atRef scales per-slot timings to the reference host: slot k's by
// refProbeMS over the mean of the samples just before and just after
// it, so a change in the host's speed during a run is followed slot by
// slot.
func (p *hostProbe) atRef(perSlot []float64) []float64 {
	around := ms(p.samples)
	out := make([]float64, 0, len(perSlot))
	for k, v := range perSlot {
		if k+1 < len(around) {
			out = append(out, v*refProbeMS/((around[k]+around[k+1])/2))
		}
	}
	return out
}
