package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightCollapsesConcurrentCalls(t *testing.T) {
	var f Flight[string, int]
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const waiters = 16
	var wg sync.WaitGroup
	results := make([]int, waiters)
	sharedCount := new(atomic.Int64)

	// One caller enters first and blocks inside fn so the rest pile up
	// behind the in-flight call.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, _ := f.Do(context.Background(), "k", func() (int, error) {
			calls.Add(1)
			close(started)
			<-release
			return 42, nil
		})
		if err != nil || v != 42 {
			t.Errorf("leader: got (%d, %v)", v, err)
		}
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := f.Do(context.Background(), "k", func() (int, error) {
				calls.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
			if shared {
				sharedCount.Add(1)
			}
		}(i)
	}
	// Let every waiter reach the in-flight wait before the leader finishes:
	// they are all runnable and this sleep yields the scheduler to them;
	// nothing else can block them on the way into Do.
	time.Sleep(300 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, v := range results {
		if v != 42 {
			t.Fatalf("waiter %d got %d", i, v)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1 (every waiter shares the leader's flight)", got)
	}
	if got := sharedCount.Load(); got != waiters {
		t.Fatalf("%d of %d waiters shared the in-flight result", got, waiters)
	}
}

func TestFlightDoesNotCacheResultsOrErrors(t *testing.T) {
	var f Flight[string, int]
	boom := errors.New("boom")
	if _, err, _ := f.Do(context.Background(), "k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("first call: %v", err)
	}
	// The failed flight must not latch: the next call runs fn again and can
	// succeed.
	v, err, shared := f.Do(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 || shared {
		t.Fatalf("second call: (%d, %v, shared=%v)", v, err, shared)
	}
	// And a successful result is not cached either.
	v, _, _ = f.Do(context.Background(), "k", func() (int, error) { return 8, nil })
	if v != 8 {
		t.Fatalf("third call returned stale value %d", v)
	}
}

func TestFlightDoContextReturnsOnDeadline(t *testing.T) {
	var f Flight[string, int]
	release := make(chan struct{})
	started := make(chan struct{})
	fnDone := make(chan struct{})

	// Initiator with an already-short deadline: it must give up promptly,
	// while fn keeps running to completion.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err, _ := f.DoContext(ctx, "k", func() (int, error) {
		close(started)
		<-release
		close(fnDone)
		return 42, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("initiator err = %v, want deadline exceeded", err)
	}

	// A joiner with its own expired context also leaves immediately.
	<-started
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	_, err, shared := f.DoContext(expired, "k", func() (int, error) { return 0, nil })
	if !errors.Is(err, context.Canceled) || !shared {
		t.Fatalf("joiner = (%v, shared=%v), want canceled + shared", err, shared)
	}

	// The abandoned flight still completes, and a patient joiner gets its
	// value — the work was not cancelled out from under the cache.
	got := make(chan int, 1)
	go func() {
		v, err, _ := f.DoContext(context.Background(), "k", func() (int, error) { return -1, nil })
		if err != nil {
			t.Errorf("patient joiner: %v", err)
		}
		got <- v
	}()
	// Give the patient joiner time to register on the in-flight call (it is
	// runnable and nothing else blocks it on the way into DoContext).
	time.Sleep(300 * time.Millisecond)
	close(release)
	<-fnDone
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("patient joiner got %d, want the original flight's 42", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("patient joiner never returned")
	}
}

func TestFlightDoBoundsOnlyTheJoinersWait(t *testing.T) {
	var f Flight[string, int]
	release := make(chan struct{})
	started := make(chan struct{})
	leader := make(chan int, 1)
	go func() {
		// The initiator runs fn inline; its own ctx is already done but
		// bounds nothing — it still gets fn's result.
		expired, cancel := context.WithCancel(context.Background())
		cancel()
		v, _, _ := f.Do(expired, "k", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		leader <- v
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err, shared := f.Do(ctx, "k", func() (int, error) { return 0, nil })
	if !errors.Is(err, context.DeadlineExceeded) || !shared {
		t.Fatalf("joiner = (%v, shared=%v), want deadline exceeded + shared", err, shared)
	}
	close(release)
	if v := <-leader; v != 42 {
		t.Fatalf("initiator got %d, want 42", v)
	}
}

func TestFlightDoContextCompletesWithoutDeadline(t *testing.T) {
	var f Flight[string, int]
	v, err, shared := f.DoContext(context.Background(), "k", func() (int, error) { return 9, nil })
	if err != nil || v != 9 || shared {
		t.Fatalf("DoContext = (%d, %v, shared=%v)", v, err, shared)
	}
}

func TestFlightDistinctKeysDoNotBlock(t *testing.T) {
	var f Flight[int, int]
	blockA := make(chan struct{})
	startedA := make(chan struct{})
	go f.Do(context.Background(), 1, func() (int, error) { close(startedA); <-blockA; return 1, nil })
	<-startedA
	// Key 2 must proceed while key 1 is in flight.
	v, err, _ := f.Do(context.Background(), 2, func() (int, error) { return 2, nil })
	if err != nil || v != 2 {
		t.Fatalf("key 2 blocked or failed: (%d, %v)", v, err)
	}
	close(blockA)
}
