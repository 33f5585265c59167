package pvfs

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pvfsib/internal/ib"
	"pvfsib/internal/localfs"
	"pvfsib/internal/mem"
	"pvfsib/internal/sim"
)

// storeRun is what one run of storeScript on a fresh cluster left behind: the
// virtual clock at the end and each client's, what every layer cost the
// host, the census of every pool, and a digest of every byte the clients read.
type storeRun struct {
	Now    sim.Time
	Ends   []sim.Time
	Costs  map[string]sim.HostCost
	Census map[string]int64
	Digest string
}

// storeShards are the engine shard counts TestStoreBorrowLikeFresh runs at.
var storeShards = []int{1, 4}

// runStoreScript builds a 4+4 cluster at the given shards, runs storeScript
// on every client and returns the cluster, running, with what the run did.
func runStoreScript(t *testing.T, shards int) (*Cluster, storeRun) {
	cfg := DefaultConfig()
	cfg.Shards = shards
	c := NewCluster(sim.NewEngine(), cfg, 4, 4)
	r := storeRun{Ends: make([]sim.Time, len(c.Clients)), Costs: map[string]sim.HostCost{}}
	digests := make([][]byte, len(c.Clients))
	for ci, cl := range c.Clients {
		c.Eng.GoOn(cl.node.Group(), fmt.Sprintf("script%d", ci), func(p *sim.Proc) {
			digests[ci] = storeScript(t, p, cl, ci)
			r.Ends[ci] = p.Now()
		})
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r.Now = c.Eng.Now()
	r.Census = c.census()
	r.Costs["engine"] = c.Eng.Telemetry().HostCost()
	r.Costs["ib.pools"] = ib.PoolHostCost(c.Net, c.Eng.NumShards())
	for _, s := range c.Servers {
		r.Costs[s.node.Name+".space"] = s.space.HostCost()
		r.Costs[s.node.Name+".fs"] = s.fs.HostCost()
		r.Costs[s.node.Name+".scratch"] = s.scratch.HostCost()
	}
	for _, cl := range c.Clients {
		r.Costs[cl.node.Name+".space"] = cl.space.HostCost()
	}
	r.Digest = fmt.Sprintf("%x", sha256.Sum256(bytes.Join(digests, nil)))
	return c, r
}

// storeScript is the mixed quiescence script, then what fresh storage must
// read as: a partly written mapping reads zeros past the write, and so does
// a file's block past a write into its middle. It returns the bytes those
// reads saw.
func storeScript(t *testing.T, p *sim.Proc, cl *Client, ci int) []byte {
	quiesceScript(t, p, cl, ci)
	const n = 64 << 10
	buf := cl.Space().Malloc(n)
	sim.Must(cl.Space().Write(buf+1000, []byte("partly written")))
	got, err := cl.Space().Read(buf, n)
	sim.Must(err)
	if want := append(make([]byte, 1000), "partly written"...); !bytes.Equal(got[:len(want)], want) || !bytes.Equal(got[len(want):], make([]byte, n-len(want))) {
		t.Errorf("cn%d: a fresh mapping written at +1000 reads other bytes than zeros around the write", ci)
	}
	fh := cl.Open(p, fmt.Sprintf("store%d", ci))
	if err := fh.Write(p, buf+1000, 14, 5<<10, OpOptions{}); err != nil {
		t.Errorf("cn%d: Write: %v", ci, err)
		return got
	}
	dst := cl.Space().Malloc(n)
	if err := fh.Read(p, dst, 8<<10, 0, OpOptions{}); err != nil {
		t.Errorf("cn%d: Read: %v", ci, err)
		return got
	}
	back, err := cl.Space().Read(dst, 8<<10)
	sim.Must(err)
	if want := append(make([]byte, 5<<10), "partly written"...); !bytes.Equal(back[:len(want)], want) {
		t.Errorf("cn%d: a file written at 5 kB reads other bytes than zeros before the write", ci)
	}
	return append(got, back...)
}

// TestStoreBorrowLikeFresh: the script run on a cluster built in a cold
// process — a child of the test, whose store holds nothing — and run again
// after a cluster that ran it retired, its storage entering the store
// unpoisoned and then poisoned, leaves the same bytes, host costs of every
// layer, virtual times and census, at one engine shard and at four. The
// warm runs borrow from the store, so storage from it is indistinguishable
// from the make it replaces: zeroed, and counted as fresh.
func TestStoreBorrowLikeFresh(t *testing.T) {
	if os.Getenv("PVFS_STORE_COLD_CHILD") == "1" {
		coldStoreChild(t)
		return
	}
	child := exec.Command(os.Args[0], "-test.run=^TestStoreBorrowLikeFresh$", "-test.count=1")
	child.Env = append(os.Environ(), "PVFS_STORE_COLD_CHILD=1")
	out, err := child.CombinedOutput()
	if err != nil {
		t.Fatalf("the cold run failed: %v\n%s", err, out)
	}
	var cold []storeRun
	for _, line := range strings.Split(string(out), "\n") {
		if js, ok := strings.CutPrefix(line, "storeRun "); ok {
			var r storeRun
			if err := json.Unmarshal([]byte(js), &r); err != nil {
				t.Fatal(err)
			}
			cold = append(cold, r)
		}
	}
	if len(cold) != len(storeShards) {
		t.Fatalf("the cold run reported %d runs, want %d:\n%s", len(cold), len(storeShards), out)
	}
	defer func(was bool) { sim.PoisonReleased = was }(sim.PoisonReleased)
	for i, shards := range storeShards {
		c, _ := runStoreScript(t, shards)
		for _, poisoned := range []bool{false, true} {
			sim.PoisonReleased = poisoned
			c.Eng.Shutdown()
			sim.PoisonReleased = true
			before := mem.Store()
			var warm storeRun
			c, warm = runStoreScript(t, shards)
			if mem.Store().Borrows == before.Borrows {
				t.Errorf("shards=%d: the run after a retirement borrowed nothing from the store", shards)
			}
			if !reflect.DeepEqual(warm, cold[i]) {
				t.Errorf("shards=%d, retired storage poisoned %t: the run differs from a cold one:\n%+v\n%+v", shards, poisoned, warm, cold[i])
			}
		}
		c.Eng.Shutdown()
	}
}

// coldStoreChild is TestStoreBorrowLikeFresh in its child: it runs the script
// at every shard count on a store that nothing has entered, and prints what
// each run did.
func coldStoreChild(t *testing.T) {
	var clusters []*Cluster
	for _, shards := range storeShards {
		c, r := runStoreScript(t, shards)
		clusters = append(clusters, c)
		js, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("storeRun %s\n", js)
	}
	if st := mem.Store(); st.Borrows != 0 {
		t.Errorf("the cold runs borrowed from the store: %+v", st)
	}
	for _, c := range clusters {
		c.Eng.Shutdown()
	}
}

// TestStoreRetireInParallel: clusters of four engine shards are built, run
// and retired from parallel goroutines, as pvfsbench's cell workers do, so
// that borrows and retirements meet in the store; every byte reads back.
func TestStoreRetireInParallel(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				cfg := DefaultConfig()
				cfg.Shards = 4
				c := NewCluster(sim.NewEngine(), cfg, 2, 2)
				for ci, cl := range c.Clients {
					c.Eng.GoOn(cl.node.Group(), fmt.Sprintf("w%d.cn%d", w, ci), func(p *sim.Proc) {
						const n = 256 << 10
						src, want := fill(cl, n, byte(w*8+round*2+ci))
						fh := cl.Open(p, fmt.Sprintf("par%d", ci))
						dst := cl.Space().Malloc(n)
						if err := fh.Write(p, src, n, 0, OpOptions{}); err != nil {
							t.Errorf("worker %d: Write: %v", w, err)
							return
						}
						if err := fh.Read(p, dst, n, 0, OpOptions{}); err != nil {
							t.Errorf("worker %d: Read: %v", w, err)
							return
						}
						if got, err := cl.Space().Read(dst, n); err != nil || !bytes.Equal(got, want) {
							t.Errorf("worker %d, round %d: read-back differs (%v)", w, round, err)
						}
					})
				}
				if err := c.Run(); err != nil {
					t.Error(err)
				}
				c.Eng.Shutdown()
			}
		}()
	}
	wg.Wait()
}

// TestRetiredSpaceFails: once its engine is shut down, a cluster's memories
// and file systems are retired, and any access to one fails loudly instead
// of reading or writing storage that now backs another cluster.
func TestRetiredSpaceFails(t *testing.T) {
	c := newCluster(t, 1, 1)
	cl, s := c.Clients[0], c.Servers[0]
	addr, _ := fill(cl, 4096, 1)
	var f *localfs.File
	app(t, c, func(p *sim.Proc) { f = s.fs.Open(p, "f") })
	c.Eng.Shutdown()
	for what, access := range map[string]func(){
		"a read of a retired space":        func() { _, _ = cl.Space().Read(addr, 1) },
		"a write of a retired space":       func() { _ = cl.Space().Write(addr, []byte{1}) },
		"a malloc in a retired space":      func() { cl.Space().Malloc(1) },
		"an open on a retired file system": func() { s.fs.Open(nil, "g") },
		"a lend of a retired file":         func() { f.Lend(make([]byte, 1)).Release() },
	} {
		if msg := recoverString(access); !strings.Contains(msg, "retired") {
			t.Errorf("%s: %q, want a failure naming the retirement", what, msg)
		}
	}
}

// recoverString runs fn and returns what it panicked with, "" if nothing.
func recoverString(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}
