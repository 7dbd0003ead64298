package fault

import (
	"context"
	"crypto/ecdsa"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bolted/internal/core"
	"bolted/internal/keylime"
)

// aikRegistrar is a registrar whose AIK always succeeds, counting calls.
type aikRegistrar struct {
	keylime.RegistrarConn
	aik   *ecdsa.PublicKey
	calls int
}

func (r *aikRegistrar) AIK(string) (*ecdsa.PublicKey, error) {
	r.calls++
	return r.aik, nil
}

// callOutcomes drives the same fixed call pattern through an injector
// and records, per (op, key, attempt), whether the call faulted. The
// pattern is 16 keys x 4 attempts each against one backend.
func callOutcomes(inj *Injector, parallel bool) map[string]bool {
	out := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for k := 0; k < 16; k++ {
		key := fmt.Sprintf("node-%02d", k)
		run := func() {
			defer wg.Done()
			for a := 0; a < 4; a++ {
				err := inj.Intercept(context.Background(), core.Call{Backend: "hil", Method: "AllocateNode", Key: key}, func(context.Context) error { return nil })
				mu.Lock()
				out[fmt.Sprintf("%s/%d", key, a)] = err != nil
				mu.Unlock()
			}
		}
		wg.Add(1)
		if parallel {
			go run()
		} else {
			run()
		}
	}
	wg.Wait()
	return out
}

// TestDeterministicAcrossInterleavings is the injector's core contract:
// which call faults depends only on (seed, backend, op, key, attempt#),
// never on goroutine scheduling. A serial replay and a fully parallel
// replay of the same call pattern must fault identically, and a second
// seed must differ.
func TestDeterministicAcrossInterleavings(t *testing.T) {
	profile := Profile{ErrorRate: 0.3}

	serial := New(42)
	serial.Set("hil", profile)
	want := callOutcomes(serial, false)

	var faulted int
	for _, f := range want {
		if f {
			faulted++
		}
	}
	if faulted == 0 || faulted == len(want) {
		t.Fatalf("degenerate fault pattern: %d/%d faulted", faulted, len(want))
	}

	for i := 0; i < 4; i++ {
		par := New(42)
		par.Set("hil", profile)
		if got := callOutcomes(par, true); fmt.Sprint(got) != fmt.Sprint(want) {
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("run %d: outcome for %s = %v, want %v", i, k, got[k], v)
				}
			}
		}
	}

	other := New(43)
	other.Set("hil", profile)
	if got := callOutcomes(other, false); fmt.Sprint(got) == fmt.Sprint(want) {
		t.Fatal("different seed produced an identical fault pattern")
	}
}

// TestRetryWalksOutOfStreak: an operation's attempt counter advances on
// every call, so a bounded retry loop eventually rolls a non-faulting
// attempt — failure streaks are finite by construction at any rate < 1.
func TestRetryWalksOutOfStreak(t *testing.T) {
	inj := New(7)
	inj.Set("bmi", Profile{ErrorRate: 0.9})
	for k := 0; k < 8; k++ {
		key := fmt.Sprintf("img-%d", k)
		ok := false
		for a := 0; a < 100; a++ {
			if err := inj.Intercept(context.Background(), core.Call{Backend: "bmi", Method: "CloneImage", Key: key}, func(context.Context) error { return nil }); err == nil {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("key %s never escaped the 0.9-rate streak in 100 attempts", key)
		}
	}
}

// TestTornPerformsThenFails: a torn response applies the side effect
// and still surfaces an error with the response lost — the classic
// retry hazard the resilience layer must survive.
func TestTornPerformsThenFails(t *testing.T) {
	inj := New(1)
	inj.Set("registrar", Profile{TornRate: 1})
	performed := 0
	err := inj.Intercept(context.Background(), core.Call{Backend: "registrar", Method: "Register", Key: "uuid-1"}, func(context.Context) error {
		performed++
		return nil
	})
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != KindTorn {
		t.Fatalf("err = %v, want injected torn fault", err)
	}
	if performed != 1 {
		t.Fatalf("inner call performed %d times, want 1", performed)
	}
	// Through the seam, a torn value-returning call must not leak the
	// inner value alongside the error.
	reg := &aikRegistrar{aik: new(ecdsa.PublicKey)}
	cloud := &core.Cloud{Registrar: reg}
	cloud.Intercept(inj.Intercept)
	v, err := cloud.Registrar.AIK("uuid-1")
	if err == nil || v != nil || reg.calls != 1 {
		t.Fatalf("torn AIK = (%v, %v) after %d inner calls, want the call performed once, nil value and error", v, err, reg.calls)
	}
	if !fe.Transient() {
		t.Fatal("injected fault must classify transient")
	}
}

// TestCrashAfterAndRevive: crash-at-step fails every call past the
// threshold until Revive, after which calls flow and stay up.
func TestCrashAfterAndRevive(t *testing.T) {
	inj := New(5)
	inj.Set("driver", Profile{CrashAfter: 2})
	ok := func() error {
		return inj.Intercept(context.Background(), core.Call{Backend: "driver", Method: "Boot", Key: "node-1"}, func(context.Context) error { return nil })
	}
	if err := ok(); err != nil {
		t.Fatalf("call 1: %v", err)
	}
	if err := ok(); err != nil {
		t.Fatalf("call 2: %v", err)
	}
	for i := 0; i < 3; i++ {
		var fe *Error
		if err := ok(); !errors.As(err, &fe) || fe.Kind != KindCrash {
			t.Fatalf("post-crash call %d = %v, want KindCrash", i, err)
		}
	}
	inj.Revive("driver")
	if err := ok(); err != nil {
		t.Fatalf("call after revive: %v", err)
	}
	if st := inj.StatsFor("driver"); st.Injected[KindCrash] != 3 || st.Calls != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestHangReleases: a hung call parks until its context ends (or the
// injector closes) and then fails with KindHang — it never blocks
// forever and never succeeds.
func TestHangReleases(t *testing.T) {
	inj := New(9)
	inj.Set("hil", Profile{HangRate: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := inj.Intercept(ctx, core.Call{Backend: "hil", Method: "PowerOn", Key: "node-1"}, func(context.Context) error { return nil })
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != KindHang {
		t.Fatalf("err = %v, want KindHang", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hang did not release on context end")
	}

	// A context-free call (registrar-style) releases on Close.
	done := make(chan error, 1)
	go func() {
		done <- inj.Intercept(context.Background(), core.Call{Backend: "hil", Method: "PowerOff", Key: "node-1"}, func(context.Context) error { return nil })
	}()
	time.Sleep(10 * time.Millisecond)
	inj.Close()
	select {
	case err := <-done:
		if !errors.As(err, &fe) || fe.Kind != KindHang {
			t.Fatalf("err after close = %v, want KindHang", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hung call not released by Close")
	}
}
