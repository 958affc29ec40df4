package bench

import (
	"fmt"
	"net"
	"time"

	"ddstore/internal/datasets"
	"ddstore/internal/faultnet"
	"ddstore/internal/graph"
	"ddstore/internal/trace"
	"ddstore/internal/transport"
)

func init() {
	register("degraded", "TCP data plane throughput under injected faults (degraded modes)", runDegraded)
}

// degradedScenario pairs a fault scenario with a label and whether one
// server is killed before the measured pass.
type degradedScenario struct {
	name       string
	sc         faultnet.Scenario
	killServer bool
}

// runDegraded measures the resilient TCP data plane under fault injection:
// the same Get workload is replayed against 2 replica groups x 2 servers
// while faultnet injects connection resets, read stalls, and payload
// corruption, and (in the last scenario) one server is killed outright.
// The paper assumes a reliable MPI fabric; this experiment quantifies what
// the TCP plane pays to survive an unreliable one — throughput degrades,
// correctness never does.
func runDegraded(o Options) (*Report, error) {
	samples := 400
	gets := 4000
	if o.Quick {
		samples = 40
		gets = 400
	}
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: samples})

	scenarios := []degradedScenario{
		{name: "healthy"},
		{name: "resets 5%", sc: faultnet.Scenario{ResetProb: 0.05}},
		{name: "stalls 1%", sc: faultnet.Scenario{StallProb: 0.01, StallFor: 50 * time.Millisecond}},
		{name: "corrupt 1%", sc: faultnet.Scenario{CorruptProb: 0.01}},
		{name: "mixed + dead server", killServer: true,
			sc: faultnet.Scenario{ResetProb: 0.05, StallProb: 0.01, StallFor: 50 * time.Millisecond, CorruptProb: 0.01}},
	}

	rep := &Report{ID: "degraded", Title: "TCP data plane throughput under injected faults",
		Columns: []string{"scenario", "samples/s", "vs healthy", "retries", "reconnects", "timeouts", "crc-rej", "failovers", "giveups"}}

	var healthy float64
	for i, sc := range scenarios {
		rate, counters, err := degradedPass(ds, samples, gets, int64(i+1), sc)
		if err != nil {
			return nil, fmt.Errorf("degraded %q: %w", sc.name, err)
		}
		if i == 0 {
			healthy = rate
		}
		rep.AddRow(sc.name, fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.2fx", rate/healthy),
			counters[transport.CounterRetries], counters[transport.CounterReconnects],
			counters[transport.CounterTimeouts], counters[transport.CounterChecksumErrors],
			counters[transport.CounterFailovers], counters[transport.CounterGiveUps])
	}
	rep.AddNote("every pass verifies payload integrity end to end; faults cost throughput, never correctness")
	rep.AddNote("the paper's MPI fabric is assumed reliable — this table is the TCP plane's resilience budget")
	return rep, nil
}

// degradedPass serves the dataset over 2 replica groups x 2 TCP servers
// behind a fault injector, then times `gets` verified sample fetches.
func degradedPass(ds *datasets.Dataset, samples, gets int, seed int64, dsc degradedScenario) (float64, map[string]int64, error) {
	sc := dsc.sc
	sc.Seed = seed
	in := faultnet.New(sc)

	half := int64(samples / 2)
	bounds := [][2]int64{{0, half}, {half, int64(samples)}}
	var servers [][]*transport.Server
	var addrs [][]string
	closeAll := func() {
		for _, rs := range servers {
			for _, s := range rs {
				s.Close()
			}
		}
	}
	for r := 0; r < 2; r++ {
		var rs []*transport.Server
		var ra []string
		for _, bd := range bounds {
			gs := make([]*graph.Graph, 0, bd[1]-bd[0])
			for id := bd[0]; id < bd[1]; id++ {
				g, err := ds.Sample(id)
				if err != nil {
					closeAll()
					return 0, nil, err
				}
				gs = append(gs, g)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeAll()
				return 0, nil, err
			}
			srv := transport.ServeListener(in.Listener(ln), transport.NewMemChunk(bd[0], gs),
				transport.ServerOptions{WriteTimeout: time.Second})
			rs = append(rs, srv)
			ra = append(ra, srv.Addr())
		}
		servers = append(servers, rs)
		addrs = append(addrs, ra)
	}
	defer closeAll()

	prof := trace.New()
	grp, err := transport.NewGroupReplicas(addrs, transport.GroupOptions{
		Client: transport.ClientOptions{
			Policy: transport.RetryPolicy{
				MaxAttempts: 8,
				BaseDelay:   time.Millisecond,
				MaxDelay:    10 * time.Millisecond,
				ReadTimeout: 30 * time.Millisecond,
				Seed:        seed,
			},
			Counters: prof,
		},
		FailoverCooldown: 200 * time.Millisecond,
	})
	if err != nil {
		return 0, nil, err
	}
	defer grp.Close()

	if dsc.killServer {
		servers[0][0].Close()
	}

	start := time.Now()
	for i := 0; i < gets; i++ {
		id := int64(i) % int64(samples)
		views, _, err := grp.LoadLazy([]int64{id})
		if err != nil {
			return 0, nil, fmt.Errorf("get %d: %w", id, err)
		}
		if g := views[0].Graph(); g.ID != id {
			return 0, nil, fmt.Errorf("get %d returned sample %d", id, g.ID)
		}
	}
	rate := float64(gets) / time.Since(start).Seconds()
	return rate, prof.Counters(), nil
}
