package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server/api"
)

func TestAdmissionBasics(t *testing.T) {
	a := newAdmission(2, 1)
	ctx := context.Background()
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Slots full: third acquire queues; fourth is rejected.
	done := make(chan error, 1)
	go func() { done <- a.acquire(ctx) }()
	waitFor(t, func() bool { _, q, _ := a.load(); return q == 1 })
	if err := a.acquire(ctx); err != errOverloaded {
		t.Fatalf("queue-full acquire = %v, want errOverloaded", err)
	}
	a.release()
	if err := <-done; err != nil {
		t.Fatalf("queued acquire after release = %v", err)
	}
	running, queued, rejected := a.load()
	if running != 2 || queued != 0 || rejected != 1 {
		t.Fatalf("load = (%d,%d,%d), want (2,0,1)", running, queued, rejected)
	}
}

func TestAdmissionFIFOGrantOrder(t *testing.T) {
	a := newAdmission(1, 4)
	ctx := context.Background()
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		// Stagger the joins so the FIFO order is well-defined.
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.acquire(ctx); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}()
		waitFor(t, func() bool { _, q, _ := a.load(); return q == i+1 })
	}
	for i := 0; i < 3; i++ {
		a.release()
		waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return len(order) == i+1 })
	}
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order = %v, want FIFO [0 1 2]", order)
		}
	}
}

func TestAdmissionContextCancelWhileQueued(t *testing.T) {
	a := newAdmission(1, 2)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.acquire(ctx) }()
	waitFor(t, func() bool { _, q, _ := a.load(); return q == 1 })
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	running, queued, _ := a.load()
	if running != 1 || queued != 0 {
		t.Fatalf("load after cancel = (%d,%d), want (1,0): the waiter must leave the room", running, queued)
	}
}

func TestAdmissionResizeGrowPromotesWaiters(t *testing.T) {
	a := newAdmission(1, 4)
	ctx := context.Background()
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() { done <- a.acquire(ctx) }()
	go func() { done <- a.acquire(ctx) }()
	waitFor(t, func() bool { _, q, _ := a.load(); return q == 2 })
	a.Resize(3, 6)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	running, queued, _ := a.load()
	if running != 3 || queued != 0 {
		t.Fatalf("load after grow = (%d,%d), want (3,0)", running, queued)
	}
	slots, queue, resizes := a.limits()
	if slots != 3 || queue != 6 || resizes != 1 {
		t.Fatalf("limits = (%d,%d,%d), want (3,6,1)", slots, queue, resizes)
	}
}

func TestAdmissionResizeShrinkNeverPreempts(t *testing.T) {
	a := newAdmission(4, 4)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := a.acquire(ctx); err != nil {
			t.Fatal(err)
		}
	}
	a.Resize(1, 0)
	running, _, _ := a.load()
	if running != 4 {
		t.Fatalf("running = %d after shrink, want 4: shrink must not preempt", running)
	}
	// New arrivals see the tighter limits immediately.
	if err := a.acquire(ctx); err != errOverloaded {
		t.Fatalf("acquire after shrink = %v, want errOverloaded", err)
	}
	// As sessions drain, the new slot count binds.
	for i := 0; i < 4; i++ {
		a.release()
	}
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	running, _, _ = a.load()
	if running != 1 {
		t.Fatalf("running = %d, want 1", running)
	}
}

func TestAdmissionSimPlane(t *testing.T) {
	a := newAdmission(1, 1)
	if !a.tryAcquire() {
		t.Fatal("tryAcquire on an idle controller failed")
	}
	if a.tryAcquire() {
		t.Fatal("tryAcquire succeeded past the slot limit")
	}
	if !a.tryEnqueue() {
		t.Fatal("tryEnqueue with queue space failed")
	}
	if a.tryEnqueue() {
		t.Fatal("tryEnqueue succeeded past the queue limit")
	}
	if _, _, rejected := a.load(); rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
	if a.promoteQueued() {
		t.Fatal("promoteQueued succeeded with no free slot")
	}
	a.release()
	if !a.promoteQueued() {
		t.Fatal("promoteQueued failed with a free slot and a queued session")
	}
	running, queued, _ := a.load()
	if running != 1 || queued != 0 {
		t.Fatalf("load = (%d,%d), want (1,0)", running, queued)
	}
}

// TestAdmissionResizeChurn hammers Resize from one goroutine while others
// churn the blocking acquire/release path (with cancellations mid-queue)
// and the sim-plane primitives; the -race build is the real assertion, plus
// conservation: once everything drains, running and queued return to zero.
func TestAdmissionResizeChurn(t *testing.T) {
	a := newAdmission(2, 2)
	stop := make(chan struct{})
	var resizer sync.WaitGroup
	resizer.Add(1)
	go func() {
		defer resizer.Done()
		sizes := []int{1, 3, 8, 2, 5}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := sizes[i%len(sizes)]
			a.Resize(s, 2*s)
		}
	}()

	var churn sync.WaitGroup
	for g := 0; g < 4; g++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; i < 300; i++ {
				cctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
				if err := a.acquire(cctx); err == nil {
					a.release()
				}
				cancel()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; i < 300; i++ {
				if a.tryAcquire() {
					a.release()
				} else if a.tryEnqueue() {
					// A queued virtual session is promoted once capacity
					// frees; the resizer cycling up to 8 slots guarantees it
					// does.
					for !a.promoteQueued() {
						runtime.Gosched()
					}
					a.release()
				}
			}
		}()
	}
	churn.Wait()
	close(stop)
	resizer.Wait()

	running, queued, _ := a.load()
	if running != 0 || queued != 0 {
		t.Fatalf("load after drain = (%d,%d), want (0,0)", running, queued)
	}
}

func TestAutoscalerGrowAndShrink(t *testing.T) {
	a := newAdmission(2, 2)
	var events []obs.Event
	s := newAutoscaler(a, AutoscaleConfig{MinSlots: 1, MaxSlots: 8, QueueFactor: 2},
		obs.Func(func(e obs.Event) { events = append(events, e) }))

	// Saturate: both slots busy, one queued → grow.
	if !a.tryAcquire() || !a.tryAcquire() {
		t.Fatal("setup acquire failed")
	}
	if !a.tryEnqueue() {
		t.Fatal("setup enqueue failed")
	}
	if !s.Tick() {
		t.Fatal("Tick under queueing did not resize")
	}
	slots, queue, _ := a.limits()
	if slots != 3 || queue != 6 {
		t.Fatalf("limits after grow = (%d,%d), want (3,6)", slots, queue)
	}
	if len(events) != 1 || events[0].Kind != obs.KindAdmissionResize ||
		events[0].Size != 3 || events[0].Total != 6 {
		t.Fatalf("resize event = %+v, want admission-resize size=3 total=6", events)
	}

	// Drain everything: idle → shrink toward the floor.
	if !a.promoteQueued() {
		t.Fatal("promoteQueued failed")
	}
	a.release()
	a.release()
	a.release()
	for i := 0; i < 10 && func() (s_ int) { s_, _, _ = a.limits(); return }() > 1; i++ {
		s.Tick()
	}
	slots, _, _ = a.limits()
	if slots != 1 {
		t.Fatalf("slots after idle ticks = %d, want shrink to floor 1", slots)
	}

	// Rejections alone (no standing queue) also trigger growth.
	if !a.tryAcquire() {
		t.Fatal("acquire failed")
	}
	a.Resize(1, 0)
	if a.tryEnqueue() {
		t.Fatal("tryEnqueue should reject with queue 0")
	}
	if !s.Tick() {
		t.Fatal("Tick after rejection did not grow")
	}
	a.release()
}

func TestAutoscalerRespectsBounds(t *testing.T) {
	a := newAdmission(1, 2)
	s := newAutoscaler(a, AutoscaleConfig{MinSlots: 1, MaxSlots: 2, QueueFactor: 1}, nil)
	if !a.tryAcquire() {
		t.Fatal("acquire failed")
	}
	if !a.tryEnqueue() {
		t.Fatal("enqueue failed")
	}
	if !s.Tick() {
		t.Fatal("grow tick failed")
	}
	if slots, _, _ := a.limits(); slots != 2 {
		t.Fatalf("slots = %d, want MaxSlots 2", slots)
	}
	// Still saturated at the ceiling: Tick must hold, not exceed MaxSlots.
	if !a.promoteQueued() {
		t.Fatal("promote failed")
	}
	if !a.tryEnqueue() {
		t.Fatal("enqueue at queue=2 failed")
	}
	if s.Tick() {
		t.Fatal("Tick resized past MaxSlots")
	}
	if slots, _, _ := a.limits(); slots != 2 {
		t.Fatalf("slots = %d, want held at 2", slots)
	}
}

// waitFor polls until cond holds; real-clock test helper for the blocking
// admission plane (the virtual clock owns the sim plane, where nothing
// blocks).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadBodyReportsCurrentLimits: the 429 body names the admission
// limits in force when the session bounced, not the startup configuration
// that autoscale or Resize has since moved.
func TestOverloadBodyReportsCurrentLimits(t *testing.T) {
	s, err := New(Config{MaxSessions: 4, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.adm.Resize(1, 0)
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", rec.Code, rec.Body)
	}
	var body api.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if want := "session limit reached (limits: 1 running, 0 queued)"; body.Error != want {
		t.Errorf("429 body %q, want %q", body.Error, want)
	}
}
