package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"bolted/internal/bmi"
	"bolted/internal/core"
	"bolted/internal/obs"
	"bolted/internal/remote"
	"bolted/internal/store"
)

// stack is boltedd's wiring assembled in the harness process from the
// same public constructors cmd/boltedd uses, on a loopback listener.
// With a recorder, span decorators sit at every layer boundary;
// without one it is the undecorated comparison the tracing overhead is
// measured against.
type stack struct {
	cloud   *core.Cloud
	mgr     *core.Manager
	st      *store.File
	base    string
	srv     *http.Server
	served  chan error
	report  *core.RecoverReport
	recover time.Duration // Manager.Recover wall time
}

// seedImage registers the OS image the way boltedd does at start-up.
func seedImage(c *core.Cloud) error {
	_, err := c.BMI.CreateOSImage(imageName, bmi.OSImageSpec{
		KernelID: "fedora28-4.17.9",
		Kernel:   []byte("vmlinuz-4.17.9-200.fc28"),
		Initrd:   []byte("initramfs-4.17.9-200.fc28"),
		Cmdline:  "root=iscsi ima_policy=tcb",
	})
	return err
}

func newStack(dataDir string, nodes int, rec *recorder) (*stack, error) {
	cfg := core.DefaultConfig()
	cfg.Nodes = nodes
	cloud, err := core.NewCloud(cfg)
	if err != nil {
		return nil, err
	}
	cloud.SetMetrics(obs.NewRegistry())
	if rec != nil {
		decorate(cloud, rec)
	}
	if err := cloud.EnableResilience(core.ResiliencePolicy{}); err != nil {
		return nil, err
	}
	if err := seedImage(cloud); err != nil {
		return nil, err
	}
	st, err := store.Open(dataDir)
	if err != nil {
		return nil, err
	}
	var durable store.Store = st
	if rec != nil {
		durable = &tracedStore{Store: st, rec: rec}
	}
	s := &stack{cloud: cloud, st: st, served: make(chan error, 1)}
	s.mgr = core.NewManagerWithStore(cloud, durable)
	begin := time.Now()
	var recStart int64
	if rec != nil {
		recStart = rec.now()
	}
	s.report, err = s.mgr.Recover(context.Background())
	s.recover = time.Since(begin)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("recover: %w", err)
	}
	if rec != nil {
		rec.add(span{Layer: layerCore, Name: "Recover", Op: "recover", Start: recStart, End: rec.now()})
	}
	handler, err := remote.NewHandlerWithManager(cloud, s.mgr)
	if err != nil {
		st.Close()
		return nil, err
	}
	if rec != nil {
		handler = &tracedHandler{next: handler, rec: rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: handler}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener without a checkpoint, like a crash would:
// the data directory keeps its raw WAL.
func (s *stack) close() error {
	err := s.srv.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}
