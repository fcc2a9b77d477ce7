package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"patterndp/internal/core"
	"patterndp/internal/event"
	"patterndp/internal/experiment"
	"patterndp/internal/metrics"
	"patterndp/internal/runtime"
	"patterndp/internal/server"
)

// Fixed sizes of the system under test.
const (
	shards       = 2
	replayBuffer = 8192
	// clientBuffer is each client subscription's local answer buffer.
	clientBuffer = 1024
	epsilon      = 1
	budgetGrant  = 1e12
)

// system is the program under test, whole and in one process: mechanism ->
// runtime -> server on a loopback TCP listener -> client connections with
// their subscriptions. tearDown undoes all of it.
type system struct {
	in      *input
	mech    core.Mechanism
	rt      *runtime.Runtime
	srv     *server.Server
	served  chan error // Serve's return
	clients []*server.Client
	// subs[c] are connection c's subscriptions, in input.subscribed order
	// (one subscribe-all subscription when that is nil).
	subs   [][]*server.ClientSub
	walDir string
}

// buildMechanism builds (and, for the AdaptivePPM, fits) one mechanism
// instance.
func buildMechanism(in *input) (core.Mechanism, error) {
	if in.wl.Adaptive {
		return in.bench.BuildMechanism(experiment.SpecAdaptive, epsilon, core.AdaptiveConfig{Seed: in.seed})
	}
	return core.NewUniformPPM(epsilon, in.private...)
}

// runtimeConfig is the runtime configuration of the workload; walDir is
// used only by WAL workloads. Both shards serve through the one mechanism
// instance: the paper's PPMs are immutable once built (Run keeps its state
// local), and fitting the AdaptivePPM once per set-up keeps setup_s about
// the fit, not about the shard count.
func runtimeConfig(in *input, mech core.Mechanism, walDir string, reg *metrics.Registry) runtime.Config {
	cfg := runtime.Config{
		Shards:      shards,
		WindowWidth: event.Timestamp(in.wl.Overlap) * paneWidth,
		Slide:       paneWidth,
		Mechanism:   func(int) (core.Mechanism, error) { return mech, nil },
		Private:     in.private,
		Targets:     in.queries,
		Seed:        in.seed,
		Metrics:     reg,
	}
	if in.wl.Budget {
		cfg.Budget = budgetGrant
		cfg.BudgetPolicy = runtime.BudgetDeny
	}
	if in.wl.WAL {
		cfg.Durability = &runtime.DurabilityConfig{Dir: walDir, Fsync: runtime.FsyncInterval}
	}
	return cfg
}

// setUp brings the whole system up with nconns client connections. On error
// everything already started is torn down again.
func setUp(in *input, workdir string, nconns int, reg *metrics.Registry) (sys *system, err error) {
	sys = &system{in: in}
	defer func() {
		if err != nil {
			sys.tearDown()
			sys = nil
		}
	}()
	if in.wl.WAL {
		if sys.walDir, err = os.MkdirTemp(workdir, "wal-"); err != nil {
			return sys, err
		}
	}
	if sys.mech, err = buildMechanism(in); err != nil {
		return sys, err
	}
	if sys.rt, err = runtime.New(runtimeConfig(in, sys.mech, sys.walDir, reg)); err != nil {
		return sys, err
	}
	if sys.srv, err = server.New(server.Config{
		Runtime:      sys.rt,
		Auth:         server.TokenAuth(0),
		ReplayBuffer: replayBuffer,
		Metrics:      reg,
	}); err != nil {
		return sys, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return sys, err
	}
	sys.served = make(chan error, 1)
	go func() { sys.served <- sys.srv.Serve(ln) }()
	addr := ln.Addr().String()
	for c := 0; c < nconns; c++ {
		cl, err := server.Connect(server.ClientConfig{
			Token:  in.conns[c].tenant,
			Dialer: func() (net.Conn, error) { return net.Dial("tcp", addr) },
		})
		if err != nil {
			return sys, err
		}
		sys.clients = append(sys.clients, cl)
		names := in.subscribed
		if names == nil {
			names = []string{""}
		}
		var subs []*server.ClientSub
		for _, name := range names {
			sub, err := cl.Subscribe(name, clientBuffer)
			if err != nil {
				return sys, err
			}
			subs = append(subs, sub)
		}
		sys.subs = append(sys.subs, subs)
	}
	return sys, nil
}

// charge is the per-window epsilon answers should report as spent.
func (s *system) charge() float64 {
	if !s.in.wl.Budget {
		return 0
	}
	return float64(s.mech.TotalEpsilon())
}

// tearDown stops everything setUp started, in dependency order — clients,
// server (listener and sessions), runtime, WAL directory — and returns only
// once the server's and runtime's goroutines have exited. It is safe on a
// partially set-up system.
func (s *system) tearDown() error {
	var errs []error
	for _, cl := range s.clients {
		cl.Close()
	}
	if s.srv != nil {
		s.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.srv.Wait(ctx); err != nil {
			errs = append(errs, fmt.Errorf("server wait: %w", err))
		}
		cancel()
	}
	if s.rt != nil {
		if err := s.rt.Close(); err != nil {
			errs = append(errs, fmt.Errorf("runtime close: %w", err))
		}
	}
	if s.served != nil {
		if err := <-s.served; err != nil && !errors.Is(err, server.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("serve: %w", err))
		}
	}
	if s.walDir != "" {
		if err := os.RemoveAll(s.walDir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
