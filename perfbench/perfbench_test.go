package main

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(7, 1000, 2*time.Second)
	b := poissonSchedule(7, 1000, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 1000, 2*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 2000 arrivals expected; a Poisson count stays within 5 sigma.
	if n := len(a); n < 1776 || n > 2224 {
		t.Fatalf("got %d arrivals at 1000/s over 2s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("offset %d out of order or range: %v after %v", i, a[i], a[i-1])
		}
	}
}

func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	// A stall far longer than the spacing of the due times, so that the
	// checks below hold with wide margins on a loaded host.
	const n, stall = 20, 300 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	// One connection; the first request stalls the server, so every later
	// request waits behind it although it was due long before it went out.
	send := func(_, i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	}
	ts, err := drive(context.Background(), n, 1, due, send)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		tm := ts[i]
		if want := stall - due[i]; tm.latency() < want {
			t.Errorf("request %d: latency %v, want >= %v (stall minus its due time)", i, tm.latency(), want)
		}
		// Waiting for the busy connection is latency, not generator lag.
		if tm.lag() > stall/3 {
			t.Errorf("request %d: lag %v counts the wait for a connection", i, tm.lag())
		}
	}
}

func TestClosedLoopSendsBackToBack(t *testing.T) {
	var got []int
	ts, err := drive(context.Background(), 5, 1, nil, func(_, i int) { got = append(got, i) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("sent %v, want in order", got)
	}
	for i, tm := range ts {
		if tm.due != tm.sent || tm.latency() != tm.done-tm.sent {
			t.Fatalf("request %d: closed-loop latency must run from the send", i)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: percentile must sort
		}
		return s
	}
	v, beyond, ok := percentile(samples(1000), 0.99)
	if !ok || v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v (%d beyond, ok=%v), want 990 with 10 beyond", v, beyond, ok)
	}
	if _, beyond, ok := percentile(samples(999), 0.99); ok {
		t.Fatalf("p99 of 999 samples accepted with %d beyond", beyond)
	}
	if _, err := mustPercentile("latency_p99_ms", samples(500), 0.99); err == nil {
		t.Fatal("mustPercentile accepted p99 of 500 samples")
	}
	p, v, ok := tailPercentile(samples(200), 0.5, 0.9, 0.95, 0.99)
	if !ok || p != 0.95 || v != 190 {
		t.Fatalf("tail of 200 samples = p%v %v ok=%v, want p95 = 190", 100*p, v, ok)
	}
	if _, _, ok := tailPercentile(samples(15), 0.9, 0.99); ok {
		t.Fatal("tail percentile reported with fewer than 10 samples beyond any candidate")
	}
}

func TestContract(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark runs %v", names, workloadNames())
	}
	got := map[string]metric{}
	for _, m := range c.EndToEnd {
		got[m.Name] = metric{Value: 1, Unit: m.Unit}
	}
	if err := check(c.EndToEnd, got); err != nil {
		t.Fatal(err)
	}
	got["extra"] = metric{Unit: "ms"}
	delete(got, c.EndToEnd[0].Name)
	got[c.EndToEnd[1].Name] = metric{Unit: "furlongs"}
	err = check(c.EndToEnd, got)
	for _, want := range []string{c.EndToEnd[0].Name + " was not measured", "furlongs", "extra is not in"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("check error %v, want it to mention %q", err, want)
		}
	}
}
