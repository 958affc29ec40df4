package transport_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ddstore/internal/comm"
	"ddstore/internal/core"
	"ddstore/internal/datasets"
	"ddstore/internal/ddp"
	"ddstore/internal/graph"
	"ddstore/internal/hydra"
	"ddstore/internal/transport"
)

// loadGraphs loads ids through the trainer's loader, lazily, and
// materializes every view: a Graph per position.
func loadGraphs(p ddp.DataPlane, ids []int64) ([]*graph.Graph, []time.Duration, error) {
	views, lats, err := (&ddp.PlaneLoader{Plane: p}).LoadBatchLazy(ids)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*graph.Graph, len(views))
	for i, v := range views {
		out[i] = v.Graph()
	}
	return out, lats, nil
}

func chunkFor(t *testing.T, ds *datasets.Dataset, lo, hi int64) *transport.MemChunk {
	t.Helper()
	gs := make([]*graph.Graph, 0, hi-lo)
	for id := lo; id < hi; id++ {
		g, err := ds.Sample(id)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return transport.NewMemChunk(lo, gs)
}

func TestServerClientGet(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 20})
	srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 20))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	m, err := cl.ShardMap()
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := m.Range(); lo != 0 || hi != 20 {
		t.Fatalf("shard map spans [%d,%d)", lo, hi)
	}
	for _, id := range []int64{0, 7, 19} {
		g, err := transport.GetGraph(cl, id)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ds.Sample(id)
		if g.ID != id || g.NumNodes != want.NumNodes || g.Y[0] != want.Y[0] {
			t.Fatalf("sample %d corrupted over the wire", id)
		}
	}
}

func TestGetOutOfRange(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 5})
	srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := transport.GetGraph(cl, 99); err == nil || !strings.Contains(err.Error(), "remote error") {
		t.Fatalf("out-of-range Get: err = %v", err)
	}
	// The connection must survive a remote error.
	if _, err := transport.GetGraph(cl, 2); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	ds := datasets.AISDExDiscrete(datasets.Config{NumGraphs: 50})
	srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 50))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := transport.Dial(srv.Addr())
			if err != nil {
				errs[w] = err
				return
			}
			defer cl.Close()
			for i := 0; i < 50; i++ {
				id := int64((w*7 + i*3) % 50)
				g, err := transport.GetGraph(cl, id)
				if err != nil {
					errs[w] = err
					return
				}
				if g.ID != id {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

func TestGroupAcrossServers(t *testing.T) {
	// Three servers each holding a third of the dataset — a cross-process
	// replica group.
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 30})
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, int64(i*10), int64((i+1)*10)))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	grp, err := transport.NewGroup(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()
	if grp.Len() != 30 {
		t.Fatalf("group len = %d", grp.Len())
	}
	ids := []int64{29, 0, 15, 7, 22}
	gs, _, err := loadGraphs(grp, ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gs {
		want, _ := ds.Sample(ids[i])
		if g.ID != ids[i] || g.Y[0] != want.Y[0] {
			t.Fatalf("sample %d corrupted", ids[i])
		}
	}
	if _, _, err := loadGraphs(grp, []int64{99}); err == nil {
		t.Fatal("unowned id accepted")
	}
}

func TestGroupRejectsGaps(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 30})
	s1, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 0, 10))
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, 15, 30)) // gap [10,15)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := transport.NewGroup([]string{s1.Addr(), s2.Addr()}); err == nil {
		t.Fatal("gapped group accepted")
	}
}

func TestServeDDStoreChunk(t *testing.T) {
	// A core.Store's local chunk is directly servable: the in-process
	// store and the TCP plane return identical bytes.
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 24})
	w, err := comm.NewWorld(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 4)
	stores := make([]*core.Store, 4)
	var mu sync.Mutex
	err = w.Run(func(c *comm.Comm) error {
		st, err := core.Open(c, ds, core.Options{})
		if err != nil {
			return err
		}
		srv, err := transport.ServeWith("127.0.0.1:0", st, transport.ServerOptions{})
		if err != nil {
			return err
		}
		mu.Lock()
		addrs[c.Rank()] = srv.Addr()
		stores[c.Rank()] = st
		mu.Unlock()
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	grp, err := transport.NewGroup(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()
	for id := int64(0); id < 24; id++ {
		gs, _, err := loadGraphs(grp, []int64{id})
		if err != nil {
			t.Fatalf("sample %d: %v", id, err)
		}
		g := gs[0]
		want, _ := ds.Sample(id)
		if g.NumNodes != want.NumNodes || g.Y[0] != want.Y[0] {
			t.Fatalf("sample %d differs over TCP", id)
		}
	}
}

func TestMemChunkBounds(t *testing.T) {
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 5})
	ch := chunkFor(t, ds, 2, 5)
	if _, err := ch.LocalSampleBytes(1); err == nil {
		t.Fatal("below-range id accepted")
	}
	if _, err := ch.LocalSampleBytes(5); err == nil {
		t.Fatal("above-range id accepted")
	}
	if lo, hi := ch.LocalRange(); lo != 2 || hi != 5 {
		t.Fatalf("range [%d,%d)", lo, hi)
	}
}

func TestGroupLoaderTrainsAModel(t *testing.T) {
	// End-to-end: chunks served over real TCP feed a real DDP training run.
	ds := datasets.HomoLumo(datasets.Config{NumGraphs: 60})
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, err := transport.Serve("127.0.0.1:0", chunkFor(t, ds, int64(i*20), int64((i+1)*20)))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	grp, err := transport.NewGroup(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer grp.Close()
	loader := &ddp.PlaneLoader{Plane: grp}
	if loader.Len() != 60 {
		t.Fatalf("Len = %d", loader.Len())
	}

	w, err := comm.NewWorld(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *comm.Comm) error {
		model := hydra.New(hydra.Config{
			NodeFeatDim: ds.NodeFeatDim(), HiddenDim: 8, ConvLayers: 1,
			FCLayers: 1, OutputDim: 1, Seed: 2,
		})
		res, err := ddp.Run(c, ddp.Config{
			Loader:     loader,
			LocalBatch: 8,
			Epochs:     2,
			Seed:       4,
			Model:      model,
		})
		if err != nil {
			return err
		}
		if len(res.Epochs) != 2 || res.Epochs[1].TrainLoss <= 0 {
			t.Errorf("training over TCP produced %+v", res.Epochs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
