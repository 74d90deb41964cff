package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCellsPreservesOrder(t *testing.T) {
	cells := make([]int, 100)
	for i := range cells {
		cells[i] = i
	}
	for _, workers := range []int{1, 2, 7, 100} {
		got, err := RunCells(context.Background(), workers, cells, func(_ context.Context, c int) (int, error) {
			// Sleep inversely to the index so later cells finish first and
			// any assembly-order bug shows up.
			time.Sleep(time.Duration((99-c)%7) * time.Millisecond)
			return c * c, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunCellsSerialAndParallelAgree(t *testing.T) {
	cells := []string{"a", "bb", "ccc", "dddd"}
	fn := func(_ context.Context, c string) (int, error) { return len(c), nil }
	serial, err := RunCells(context.Background(), 1, cells, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunCells(context.Background(), 4, cells, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("results diverge at %d: %d vs %d", i, serial[i], par[i])
		}
	}
}

func TestRunCellsJoinsErrors(t *testing.T) {
	cells := []int{0, 1, 2, 3}
	boom := errors.New("boom")
	_, err := RunCells(context.Background(), 4, cells, func(_ context.Context, c int) (int, error) {
		if c%2 == 1 {
			return 0, fmt.Errorf("cell %d: %w", c, boom)
		}
		return c, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestRunCellsStopsAfterError(t *testing.T) {
	cells := make([]int, 1000)
	for i := range cells {
		cells[i] = i
	}
	var ran atomic.Int64
	_, err := RunCells(context.Background(), 2, cells, func(_ context.Context, c int) (int, error) {
		ran.Add(1)
		if c == 0 {
			return 0, errors.New("early failure")
		}
		time.Sleep(time.Millisecond)
		return c, nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if n := ran.Load(); n == int64(len(cells)) {
		t.Fatalf("all %d cells ran despite early failure", n)
	}
}

// TestRunCellsWaitsForStartedCellsOnError pins what callers that recycle
// memory across calls rely on (truecard's buffer pool): RunCells returns
// only after every cell it started has returned, also when one fails
// early and the others ignore the cancellation.
func TestRunCellsWaitsForStartedCellsOnError(t *testing.T) {
	cells := make([]int, 16)
	for i := range cells {
		cells[i] = i
	}
	var started, finished atomic.Int64
	_, err := RunCells(context.Background(), 4, cells, func(_ context.Context, c int) (int, error) {
		started.Add(1)
		defer finished.Add(1)
		if c == 0 {
			// Fail only once every worker holds a cell.
			for started.Load() < 4 {
				time.Sleep(100 * time.Microsecond)
			}
			return 0, errors.New("early failure")
		}
		time.Sleep(20 * time.Millisecond)
		return c, nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if s, f := started.Load(), finished.Load(); s != f {
		t.Fatalf("RunCells returned with %d of %d started cells still running", s-f, s)
	}
}

func TestRunCellsErrorNotPollutedByCancelEchoes(t *testing.T) {
	// Workers that poll the context after a sibling's failure return
	// context.Canceled; those echoes must not drown out the real error or
	// make the error message depend on worker timing.
	cells := make([]int, 64)
	for i := range cells {
		cells[i] = i
	}
	boom := errors.New("real failure")
	_, err := RunCells(context.Background(), 8, cells, func(ctx context.Context, c int) (int, error) {
		if c == 0 {
			return 0, boom
		}
		for ctx.Err() == nil {
			time.Sleep(100 * time.Microsecond)
		}
		return 0, ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("real error lost: %v", err)
	}
	if strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("cancellation echoes joined into the error: %v", err)
	}
}

func TestRunCellsHonorsCancelledContext(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := RunCells(ctx, workers, []int{1, 2, 3}, func(_ context.Context, c int) (int, error) {
			return c, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled, got %v", workers, err)
		}
	}
}

func TestRunCellsExternalCancelMidRunIsAnError(t *testing.T) {
	// Cancellation from outside (not via an fn error) abandons unstarted
	// cells; the zero-filled partial results must not look like success.
	ctx, cancel := context.WithCancel(context.Background())
	cells := make([]int, 100)
	for i := range cells {
		cells[i] = i
	}
	_, err := RunCells(ctx, 2, cells, func(_ context.Context, c int) (int, error) {
		if c == 0 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return c, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("external mid-run cancel returned %v, want context.Canceled", err)
	}
}

func TestRunCellsEmpty(t *testing.T) {
	got, err := RunCells(context.Background(), 8, nil, func(_ context.Context, c int) (int, error) {
		return c, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v, %v", got, err)
	}
}

func TestDoRunsAllTasks(t *testing.T) {
	var a, b, c int
	err := Do(context.Background(), 3,
		func() error { a = 1; return nil },
		func() error { b = 2; return nil },
		func() error { c = 3; return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("tasks incomplete: %d %d %d", a, b, c)
	}
}

func TestDoPropagatesError(t *testing.T) {
	err := Do(context.Background(), 2,
		func() error { return nil },
		func() error { return errors.New("task failed") },
	)
	if err == nil || !strings.Contains(err.Error(), "task failed") {
		t.Fatalf("error lost: %v", err)
	}
}

func TestKeyedOnceBuildsEachKeyExactlyOnce(t *testing.T) {
	var ko KeyedOnce[int, int]
	var builds atomic.Int64
	const goroutines, keys = 32, 5
	results := make([][]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int, keys)
			for k := 0; k < keys; k++ {
				out[k] = ko.Get(k, func() int {
					builds.Add(1)
					time.Sleep(time.Millisecond) // widen the race window
					return k * 100
				})
			}
			results[g] = out
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != keys {
		t.Fatalf("built %d values for %d keys", n, keys)
	}
	for g, out := range results {
		for k, v := range out {
			if v != k*100 {
				t.Fatalf("goroutine %d saw Get(%d) = %d, want %d", g, k, v, k*100)
			}
		}
	}
}

func TestKeyedOnceDistinctKeysBuildConcurrently(t *testing.T) {
	// Two builds that each wait for the other to start can only finish if
	// Get runs builds outside the map lock.
	var ko KeyedOnce[string, int]
	aStarted := make(chan struct{})
	bStarted := make(chan struct{})
	done := make(chan int, 2)
	go func() {
		done <- ko.Get("a", func() int { close(aStarted); <-bStarted; return 1 })
	}()
	go func() {
		done <- ko.Get("b", func() int { close(bStarted); <-aStarted; return 2 })
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("builds of distinct keys serialized (deadlock)")
		}
	}
}
