package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock advances only when told to: by a sleep, or by the work a
// request simulates.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

const ms = time.Millisecond

// One worker, requests due every 10 ms, the second one slow: latency is
// counted from the due time, so the stall shows up in the requests queued
// behind it, and the generator's lateness is reported.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	service := []time.Duration{2 * ms, 25 * ms, 2 * ms, 2 * ms, 2 * ms}
	due := uniformSchedule(len(service), 100)
	got := openLoop(clk, due, 1, func(_, i int) { clk.now += service[i] })

	want := []openSample{
		{Latency: 2 * ms, SendLag: 0},        // due 0, done 2
		{Latency: 25 * ms, SendLag: 0},       // due 10, done 35
		{Latency: 17 * ms, SendLag: 15 * ms}, // due 20, sent 35, done 37
		{Latency: 9 * ms, SendLag: 7 * ms},   // due 30, sent 37, done 39
		{Latency: 2 * ms, SendLag: 0},        // due 40: caught up
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if s := lateShare(got, 10*ms); s != 0.2 {
		t.Errorf("lateShare(10ms) = %g, want 0.2", s)
	}
	if s := lateShare(got, 5*ms); s != 0.4 {
		t.Errorf("lateShare(5ms) = %g, want 0.4", s)
	}
}

func TestUniformSchedule(t *testing.T) {
	due := uniformSchedule(4, 200)
	for i, want := range []time.Duration{0, 5 * ms, 10 * ms, 15 * ms} {
		if due[i] != want {
			t.Errorf("due[%d] = %v, want %v", i, due[i], want)
		}
	}
}

func TestClosedPassRunsEveryOpOnce(t *testing.T) {
	const n = 1000
	var hits [n]atomic.Int32
	var clients [3]atomic.Int32
	closedPass(n, 3, func(c, i int) {
		hits[i].Add(1)
		clients[c].Add(1)
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("op %d ran %d times", i, hits[i].Load())
		}
	}
	if total := clients[0].Load() + clients[1].Load() + clients[2].Load(); total != n {
		t.Errorf("clients performed %d ops, want %d", total, n)
	}
}
