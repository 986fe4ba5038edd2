package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"lpvs/internal/obs"
	"lpvs/internal/obs/runtimecollector"
	"lpvs/internal/router"
	"lpvs/internal/server"
	"lpvs/internal/shard"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// The daemons run with cmd/lpvsd's default flag values, so the numbers
// describe the daemon as deployed: capacity 100, -vc-label-budget 64,
// metric history on, incremental scheduling on, the default admission
// gate and batch cap, info-level text logs, and tracing, audit,
// snapshots and the flight recorder off. Logs are formatted and then
// discarded, as a daemon writing to a pipe would pay for them.
const (
	lpvsdCapacity     = 100
	lpvsdVCBudget     = 64
	lpvsdLambda       = 1.0
	lpvsdSlotSec      = 300.0
	lpvsdContentSeed  = 1
	lpvsdHistory      = 15 * time.Minute
	lpvsdHistoryEvery = 5 * time.Second
	lpvsdSLOEvery     = 5 * time.Second
	lpvsdRuntimeEvery = 10 * time.Second
)

// channelIDs are the benchmark's channels; the first is lpvsd's default
// stream ID, which the router needs as its default channel.
var channelIDs = []string{"live", "music", "news", "sports", "esports", "irl", "talk", "kids"}

// genStreams builds the content of n channels the way lpvsd does: the
// default stream from the content seed, each extra channel from the
// seed plus its position, all of the default genre and two hours long.
func genStreams(n int) (*video.Video, []*video.Video, error) {
	chunks := int(lpvsdSlotSec/video.DefaultChunkSeconds) * 12
	def, err := video.Generate(stats.NewRNG(lpvsdContentSeed), video.DefaultGenConfig(channelIDs[0], video.Gaming, chunks))
	if err != nil {
		return nil, nil, err
	}
	var extras []*video.Video
	for i, id := range channelIDs[1:n] {
		v, err := video.Generate(stats.NewRNG(lpvsdContentSeed+int64(i)+1), video.DefaultGenConfig(id, video.Gaming, chunks))
		if err != nil {
			return nil, nil, err
		}
		extras = append(extras, v)
	}
	return def, extras, nil
}

// daemon is one in-process LPVS process served on a loopback listener.
type daemon struct {
	name string // "edge", "router" or a shard node ID
	url  string
	srv  *server.Server // nil for the router
	hs   *http.Server
	done chan struct{} // closed when Serve returns
	bg   context.CancelFunc
	bgWG sync.WaitGroup
}

func newLogger() (*slog.Logger, error) { return obs.NewLogger(io.Discard, "info", "text") }

// startEdge starts an edge daemon, or a shard member when nodeID is set.
func startEdge(nodeID string, def *video.Video, extras []*video.Video, tr *tracer) (*daemon, error) {
	logger, err := newLogger()
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Stream:          def,
		ExtraStreams:    extras,
		ShardMode:       nodeID != "",
		NodeID:          nodeID,
		ServerStreams:   lpvsdCapacity,
		Lambda:          lpvsdLambda,
		SlotSec:         lpvsdSlotSec,
		Logger:          logger,
		VCLabelBudget:   lpvsdVCBudget,
		HistoryWindow:   lpvsdHistory,
		HistoryInterval: lpvsdHistoryEvery,
	})
	if err != nil {
		return nil, err
	}
	obs.RegisterBuildInfo(srv.Registry(), "lpvsd", "bench")
	name := nodeID
	if name == "" {
		name = "edge"
	}
	d := &daemon{name: name, srv: srv}
	ctx, cancel := context.WithCancel(context.Background())
	d.bg = cancel
	d.goBG(func() { runtimecollector.New(srv.Registry()).Run(ctx, lpvsdRuntimeEvery) })
	d.goBG(func() { srv.SLO().Run(ctx.Done(), lpvsdSLOEvery) })
	if h := srv.History(); h != nil {
		d.goBG(func() { h.Run(ctx.Done()) })
	}
	layer := "server"
	if nodeID != "" {
		layer = "shard"
	}
	if err := d.serve(tr.wrap(name, layer, srv.Handler())); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// startRouter starts a router over the given shard members.
func startRouter(members []*daemon, tr *tracer) (*daemon, error) {
	logger, err := newLogger()
	if err != nil {
		return nil, err
	}
	m, err := shardMap(members)
	if err != nil {
		return nil, err
	}
	rt, err := router.New(router.Config{Map: m, DefaultChannel: channelIDs[0], Logger: logger})
	if err != nil {
		return nil, err
	}
	obs.RegisterBuildInfo(rt.Registry(), "lpvsd", "bench")
	d := &daemon{name: "router"}
	ctx, cancel := context.WithCancel(context.Background())
	d.bg = cancel
	d.goBG(func() { runtimecollector.New(rt.Registry()).Run(ctx, lpvsdRuntimeEvery) })
	d.goBG(func() { rt.SLO().Run(ctx.Done(), lpvsdSLOEvery) })
	if err := d.serve(tr.wrap("router", "router", rt.Handler())); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// shardMap builds the consistent-hash map over members with the
// default replica count, as lpvs-shard and lpvsd do.
func shardMap(members []*daemon) (*shard.Map, error) {
	nodes := make([]shard.Node, len(members))
	for i, d := range members {
		nodes[i] = shard.Node{ID: d.name, Addr: d.url}
	}
	return shard.New(nodes, 0)
}

func (d *daemon) goBG(fn func()) {
	d.bgWG.Add(1)
	go func() {
		defer d.bgWG.Done()
		fn()
	}()
}

// serve listens on a fresh loopback port with lpvsd's server timeouts.
func (d *daemon) serve(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.url = "http://" + ln.Addr().String()
	d.hs = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	d.done = make(chan struct{})
	go func() {
		defer close(d.done)
		if err := d.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("daemon %s: serve: %v\n", d.name, err)
		}
	}()
	return nil
}

// close stops serving, stops the background loops and waits for all of
// them to return.
func (d *daemon) close() {
	if d.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := d.hs.Shutdown(ctx); err != nil {
			d.hs.Close()
		}
		cancel()
		<-d.done
	}
	if d.bg != nil {
		d.bg()
		d.bgWG.Wait()
	}
	if d.srv != nil {
		d.srv.Close()
	}
}

// system is the set of daemons one workload drives.
type system struct {
	target  string // where device traffic goes: the edge or the router
	edge    *daemon
	router  *daemon
	shards  []*daemon // a, b, c in federated runs
	daemons []*daemon // every process, for teardown and scrapes
}

// servers returns the daemons that run the scheduler (the edge, or
// every shard member).
func (s *system) servers() []*daemon {
	if s.edge != nil {
		return []*daemon{s.edge}
	}
	return s.shards
}

func (s *system) close() {
	for i := len(s.daemons) - 1; i >= 0; i-- {
		s.daemons[i].close()
	}
}

// startSystem starts one edge daemon, or — federated — shards a, b, c
// and a router whose initial map holds a and b.
func startSystem(federated bool, channels int, tr *tracer) (*system, error) {
	def, extras, err := genStreams(channels)
	if err != nil {
		return nil, err
	}
	sys := &system{}
	if !federated {
		d, err := startEdge("", def, extras, tr)
		if err != nil {
			return nil, err
		}
		sys.edge, sys.target, sys.daemons = d, d.url, []*daemon{d}
		return sys, nil
	}
	for _, id := range []string{"a", "b", "c"} {
		d, err := startEdge(id, def, extras, tr)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.shards = append(sys.shards, d)
		sys.daemons = append(sys.daemons, d)
	}
	rt, err := startRouter(sys.shards[:2], tr)
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.router, sys.target = rt, rt.url
	sys.daemons = append(sys.daemons, rt)
	return sys, nil
}
