package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// closedPass runs ops 0..n-1 in a closed loop: each of clients goroutines
// takes the next op only after its previous one completed, so a slower
// program receives less load. It returns the wall time of the whole pass.
func closedPass(n, clients int, do func(client, i int)) time.Duration {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(c, i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// clock is the open-loop scheduler's notion of time, so tests can drive it
// with a fake.
type clock interface {
	// Now is the time since the clock's epoch.
	Now() time.Duration
	// SleepUntil returns once Now() >= t; it returns at once when t passed.
	SleepUntil(t time.Duration)
}

type wallClock struct{ epoch time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.epoch) }

func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// openSample is one request of an open loop. Latency runs from the time the
// request was due, not from when it was sent, so the wait a stall imposes
// on later requests is counted; SendLag is how late the generator sent it.
type openSample struct {
	Latency time.Duration
	SendLag time.Duration
}

// openLoop sends request i at due[i] regardless of how the program is
// doing: workers goroutines each take the next due request, wait for its
// due time and perform it. With every worker busy the next request goes out
// late, and that lateness is part of its latency.
func openLoop(clk clock, due []time.Duration, workers int, do func(worker, i int)) []openSample {
	out := make([]openSample, len(due))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				clk.SleepUntil(due[i])
				sent := clk.Now()
				do(w, i)
				out[i] = openSample{Latency: clk.Now() - due[i], SendLag: sent - due[i]}
			}
		}()
	}
	wg.Wait()
	return out
}

// lateShare is the share of samples the generator sent more than slack
// after they were due: the sign of a backlog growing in the generator.
func lateShare(samples []openSample, slack time.Duration) float64 {
	if len(samples) == 0 {
		return 0
	}
	late := 0
	for _, s := range samples {
		if s.SendLag > slack {
			late++
		}
	}
	return float64(late) / float64(len(samples))
}

// uniformSchedule spaces n due times evenly at rate requests per second.
func uniformSchedule(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}
