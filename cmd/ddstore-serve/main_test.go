package main

import (
	"os"
	"reflect"
	"testing"
	"time"

	"ddstore/internal/faultnet"
	"ddstore/internal/serveboot"
)

// TestParseFlags has one row per flag: each must reach the Config the
// cluster boots from, whatever the owner count. Before there was one boot
// path, -elastic N parsed the front-end, cache, drain and flightrec-dir
// flags and then dropped them.
func TestParseFlags(t *testing.T) {
	defaults, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := serveboot.Config{
		Addrs: []string{"127.0.0.1:7001"}, N: 10000, Hi: -1,
		WriteTimeout: 5 * time.Second, DrainTimeout: 5 * time.Second,
	}
	if !reflect.DeepEqual(defaults, want) {
		t.Fatalf("defaults = %+v\nwant %+v", defaults, want)
	}

	chaos := func(mut func(*faultnet.Scenario)) func(*serveboot.Config) {
		return func(c *serveboot.Config) {
			if c.Chaos == nil {
				c.Chaos = &faultnet.Scenario{Seed: 1, StallFor: 200 * time.Millisecond}
			}
			mut(c.Chaos)
		}
	}
	rows := []struct {
		args []string
		set  func(*serveboot.Config) // what the flags change in the defaults
	}{
		{[]string{"-addr", "a:1, b:2"}, func(c *serveboot.Config) { c.Addrs = []string{"a:1", "b:2"} }},
		{[]string{"-cff", "/d"}, func(c *serveboot.Config) { c.CFFDir = "/d" }},
		{[]string{"-pff", "/d"}, func(c *serveboot.Config) { c.PFFDir = "/d" }},
		{[]string{"-dataset", "ising"}, func(c *serveboot.Config) { c.Dataset = "ising" }},
		{[]string{"-n", "7"}, func(c *serveboot.Config) { c.N = 7 }},
		{[]string{"-bins", "9"}, func(c *serveboot.Config) { c.Bins = 9 }},
		{[]string{"-lo", "3", "-hi", "8"}, func(c *serveboot.Config) { c.Lo, c.Hi = 3, 8 }},
		{[]string{"-elastic", "2"}, func(c *serveboot.Config) { c.Owners = 2 }},
		{[]string{"-width", "2"}, func(c *serveboot.Config) { c.Width = 2 }},
		{[]string{"-write-timeout", "1s"}, func(c *serveboot.Config) { c.WriteTimeout = time.Second }},
		{[]string{"-idle-timeout", "2s"}, func(c *serveboot.Config) { c.IdleTimeout = 2 * time.Second }},
		{[]string{"-debug-addr", ":9"}, func(c *serveboot.Config) { c.DebugAddr = ":9" }},
		{[]string{"-tenants", "a;b:rate=1"}, func(c *serveboot.Config) { c.Tenants = "a;b:rate=1" }},
		{[]string{"-max-conns", "5"}, func(c *serveboot.Config) { c.MaxConns = 5 }},
		{[]string{"-queue-depth", "6"}, func(c *serveboot.Config) { c.QueueDepth = 6 }},
		{[]string{"-frontend-workers", "4"}, func(c *serveboot.Config) { c.FrontendWorkers = 4 }},
		{[]string{"-drain-timeout", "3s"}, func(c *serveboot.Config) { c.DrainTimeout = 3 * time.Second }},
		{[]string{"-flightrec", "-1"}, func(c *serveboot.Config) { c.FlightRecCap = -1 }},
		{[]string{"-slow-threshold", "1ms"}, func(c *serveboot.Config) { c.SlowThreshold = time.Millisecond }},
		{[]string{"-flightrec-dir", "/f"}, func(c *serveboot.Config) { c.FlightRecDir = "/f" }},
		{[]string{"-cache-bytes", "1024"}, func(c *serveboot.Config) { c.CacheBytes = 1024 }},
		{[]string{"-chaos-reset", "0.1", "-chaos-seed", "7"}, chaos(func(s *faultnet.Scenario) { s.ResetProb, s.Seed = 0.1, 7 })},
		{[]string{"-chaos-stall-prob", "0.2", "-chaos-stall", "1ms"}, chaos(func(s *faultnet.Scenario) { s.StallProb, s.StallFor = 0.2, time.Millisecond })},
		{[]string{"-chaos-corrupt", "0.3"}, chaos(func(s *faultnet.Scenario) { s.CorruptProb = 0.3 })},
		{[]string{"-chaos-slow-start", "2ms"}, chaos(func(s *faultnet.Scenario) { s.SlowStart = 2 * time.Millisecond })},
		// A seed alone injects nothing, so it boots no injector.
		{[]string{"-chaos-seed", "7"}, func(*serveboot.Config) {}},
		// The two halves of the feature matrix in one command line.
		{[]string{"-elastic", "2", "-tenants", "polite;hostile:rate=9", "-cache-bytes", "4096", "-drain-timeout", "1s", "-flightrec-dir", "/f", "-max-conns", "8"},
			func(c *serveboot.Config) {
				c.Owners, c.Tenants, c.CacheBytes, c.DrainTimeout, c.FlightRecDir, c.MaxConns = 2, "polite;hostile:rate=9", 4096, time.Second, "/f", 8
			}},
	}
	for _, row := range rows {
		got, err := parseFlags(row.args)
		if err != nil {
			t.Errorf("%v: %v", row.args, err)
			continue
		}
		want, err := parseFlags(nil)
		if err != nil {
			t.Fatal(err)
		}
		row.set(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v:\n got %+v\nwant %+v", row.args, got, want)
		}
	}
}

// TestRunExitStatus: a spec the cluster rejects exits 2 for any owner
// count (an elastic boot used to ignore both flags), an unknown flag
// exits 2, and a good command line serves until the signal and exits 0.
func TestRunExitStatus(t *testing.T) {
	// Whatever boots shuts down at once.
	stopped := func() <-chan os.Signal {
		stop := make(chan os.Signal, 1)
		stop <- os.Interrupt
		return stop
	}
	base := []string{"-dataset", "homolumo", "-n", "20", "-addr", "127.0.0.1:0"}
	for _, owners := range []string{"0", "1", "2"} {
		for _, bad := range [][]string{
			{"-tenants", "a:turbo=9"},
		} {
			args := append(append(append([]string(nil), base...), "-elastic", owners), bad...)
			if code := run(args, stopped()); code != 2 {
				t.Errorf("run(%v) = %d, want 2", args, code)
			}
		}
	}
	if code := run([]string{"-no-such-flag"}, stopped()); code != 2 {
		t.Errorf("an unknown flag exits %d, want 2", code)
	}
	args := append(base, "-elastic", "2", "-tenants", "polite;hostile:rate=9", "-cache-bytes", "4096", "-drain-timeout", "1s", "-debug-addr", "127.0.0.1:0")
	if code := run(args, stopped()); code != 0 {
		t.Errorf("run(%v) = %d, want 0", args, code)
	}
}
