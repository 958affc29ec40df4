package main

import "testing"

// TestRunUsage: contradictory or incomplete command lines exit 2 before
// anything runs, whichever mode they were aimed at; -list exits 0.
func TestRunUsage(t *testing.T) {
	rows := []struct {
		name string
		args []string
		want int
	}{
		{"two output formats", []string{"-csv", "-json"}, 2},
		{"loadgen without a server", []string{"-loadgen"}, 2},
		{"a server without loadgen", []string{"-addr", "127.0.0.1:7001"}, 2},
		{"elastic without loadgen", []string{"-elastic"}, 2},
		{"traced without loadgen", []string{"-traced"}, 2},
		{"tenant without loadgen", []string{"-tenant", "alpha"}, 2},
		{"scrape without loadgen", []string{"-scrape", "http://127.0.0.1:7901/metrics"}, 2},
		{"ramp without loadgen", []string{"-ramp", "1,4"}, 2},
		{"bad ramp step", []string{"-loadgen", "-addr", "127.0.0.1:7001", "-ramp", "1,x"}, 2},
		{"unknown experiment", []string{"-exp", "bogus"}, 2},
		{"a flag that no longer exists", []string{"-isolation"}, 2},
		{"list", []string{"-list"}, 0},
	}
	for _, r := range rows {
		if got := run(r.args); got != r.want {
			t.Errorf("%s: run(%q) = %d, want %d", r.name, r.args, got, r.want)
		}
	}
}

// TestParseFlagsFeedsTheSweep: each loadgen flag reaches the plan the
// runner executes — the flags are the only place its defaults live.
func TestParseFlagsFeedsTheSweep(t *testing.T) {
	o, err := parseFlags([]string{"-loadgen", "-addr", "a:1, b:2", "-mix", "0", "-clients", "3",
		"-qps", "50", "-tenant", "polite", "-elastic", "-traced", "-seed", "9"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.load.Addrs) != 2 || o.load.Addrs[1] != "b:2" {
		t.Errorf("addrs = %q", o.load.Addrs)
	}
	if !o.load.Elastic || !o.load.Trace || o.load.Tenant != "polite" || o.load.Seed != 9 {
		t.Errorf("config = %+v", o.load)
	}
	if len(o.load.Phases) != 3 {
		t.Fatalf("%d phases, want cold, warm, open", len(o.load.Phases))
	}
	for _, ph := range o.load.Phases {
		if ph.Mix != 0 || ph.Workers != 3 {
			t.Errorf("%s: mix %g workers %d, want 0 and 3", ph.Name, ph.Mix, ph.Workers)
		}
	}
	if open := o.load.Phases[2]; open.TargetQPS != 50 {
		t.Errorf("open phase at %g qps, want 50", open.TargetQPS)
	}

	d, err := parseFlags([]string{"-loadgen", "-addr", "a:1"})
	if err != nil {
		t.Fatal(err)
	}
	if ph := d.load.Phases[0]; ph.Mix != 0.25 || ph.Workers != 4 || ph.Duration.Seconds() != 5 {
		t.Errorf("defaults: %+v", ph)
	}
}
