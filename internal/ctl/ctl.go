// Package ctl interprets a small line-oriented command language against a
// simulated PVFS cluster, for interactive exploration and scripted
// experiments without writing Go:
//
//	cluster servers=4 clients=2
//	open data stripe=16384
//	writelist data count=64 size=512 fstride=2048 seed=7
//	readlist data count=64 size=512 fstride=2048 verify=7
//	stat data
//	stats
//	time
//
// The fault plane is scripted the same way (rates are probabilities, times
// are microseconds of virtual time relative to the inject command; fabric
// node ids are servers 0..S-1 then clients S..S+C-1):
//
//	fault inject wr=0.02 reg=0.1 seed=7
//	fault inject cut=4:0:200:400 crash=2:300:600 spike=4:1:0:50:30
//	fault list
//	fault clear
//
// The span plane records request-scoped traces on the virtual clock:
//
//	trace on                       enable span tracing (before the workload;
//	                               'trace spans' is the same switch)
//	trace dump last=10             print the spans that completed last, fault
//	                               instants included (file=PATH optional)
//	trace profile                  print the per-stage breakdown so far
//	trace export file=out.json     write a Perfetto (Chrome trace-event) file
//	trace off                      detach the span tracer
//
// The metrics plane samples every layer on the virtual clock into
// per-interval series (see internal/metrics):
//
//	metrics on interval=100 depth=1024   attach a registry (interval in us)
//	metrics rate name=net.tx.bytes       print trailing per-interval values
//	metrics dump format=prom             export (json|prom), file=PATH optional
//	metrics top                          engine execution telemetry (shard-dependent)
//	metrics off                          detach, restoring the no-op sinks
//
// The client-side page cache (write-behind, strided read-ahead, lease
// coherence) wraps subsequent file commands once enabled:
//
//	cache on pages=64 pagesize=65536 highwater=32 readahead=4 wt=0
//	cache stats                    print cache/lease counters and residency
//	cache flush                    drain write-behind state everywhere
//	cache off                      flush, release leases, detach
//
// Commands run sequentially, each as one application process in virtual
// time. Lines starting with '#' and blank lines are ignored.
package ctl

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"pvfsib/internal/fault"
	"pvfsib/internal/ib"
	"pvfsib/internal/mem"
	"pvfsib/internal/metrics"
	"pvfsib/internal/pcache"
	"pvfsib/internal/pvfs"
	"pvfsib/internal/sieve"
	"pvfsib/internal/sim"
)

// Interp is one interpreter session.
type Interp struct {
	out     io.Writer
	cluster *pvfs.Cluster
	mx      *metrics.Registry                   // attached metrics plane (nil = off)
	files   map[string]map[int]*pvfs.FileHandle // name -> client -> handle
	bufs    map[string]mem.Addr                 // named buffers (reserved)
	plan    *fault.Plan                         // active fault plan (nil = none)
	line    int

	cacheCfg *pcache.Config                  // nil = caching off
	caches   map[string]map[int]*pcache.File // name -> client -> cache
}

// New creates an interpreter writing results to out.
func New(out io.Writer) *Interp {
	return &Interp{
		out:    out,
		files:  make(map[string]map[int]*pvfs.FileHandle),
		bufs:   map[string]mem.Addr{},
		caches: make(map[string]map[int]*pcache.File),
	}
}

// Run executes every command from src, stopping at the first error.
func (in *Interp) Run(src io.Reader) error {
	sc := bufio.NewScanner(src)
	for sc.Scan() {
		in.line++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := in.exec(line); err != nil {
			return fmt.Errorf("line %d (%q): %w", in.line, line, err)
		}
	}
	return sc.Err()
}

// args holds a command's positional name and key=value options, and the
// first option that did not parse: an accessor that fails records its
// error and returns the default, so a command reads every option and then
// checks err once, before it acts.
type args struct {
	name string
	kv   map[string]string
	err  error
}

func parseArgs(fields []string) *args {
	a := &args{kv: map[string]string{}}
	for _, f := range fields {
		if k, v, ok := strings.Cut(f, "="); ok {
			a.kv[k] = v
		} else if a.name == "" {
			a.name = f
		}
	}
	return a
}

// fail records a parse error unless an earlier one is already recorded.
func (a *args) fail(format string, v ...any) {
	if a.err == nil {
		a.err = fmt.Errorf(format, v...)
	}
}

func (a *args) str(key, def string) string {
	if v, ok := a.kv[key]; ok {
		return v
	}
	return def
}

func (a *args) num(key string, def int64) int64 {
	v, ok := a.kv[key]
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		a.fail("bad %s=%q", key, v)
		return def
	}
	return n
}

func (a *args) float(key string, def float64) float64 {
	v, ok := a.kv[key]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		a.fail("bad %s=%q", key, v)
		return def
	}
	return f
}

func (in *Interp) exec(line string) error {
	fields := strings.Fields(line)
	cmd, rest := fields[0], parseArgs(fields[1:])
	switch cmd {
	case "cluster":
		return in.cmdCluster(rest)
	case "echo":
		fmt.Fprintln(in.out, strings.TrimSpace(strings.TrimPrefix(line, "echo")))
		return nil
	}
	if in.cluster == nil {
		return fmt.Errorf("no cluster (run 'cluster' first)")
	}
	switch cmd {
	case "open":
		return in.cmdOpen(rest)
	case "write", "read":
		return in.cmdContig(cmd, rest)
	case "writelist", "readlist":
		return in.cmdList(cmd, rest)
	case "sync":
		return in.withFile(rest, func(p *sim.Proc, fh *pvfs.FileHandle) error {
			if cf := in.cached(fh); cf != nil {
				return cf.Sync(p)
			}
			fh.Sync(p)
			return nil
		})
	case "stat":
		return in.withFile(rest, func(p *sim.Proc, fh *pvfs.FileHandle) error {
			if cf := in.cached(fh); cf != nil {
				size, err := cf.Stat(p)
				if err != nil {
					return err
				}
				fmt.Fprintf(in.out, "%s: %d bytes\n", fh.Name(), size)
				return nil
			}
			fmt.Fprintf(in.out, "%s: %d bytes\n", fh.Name(), fh.Stat(p))
			return nil
		})
	case "remove":
		return in.withClient(rest, func(p *sim.Proc, cl *pvfs.Client) error {
			cl.Remove(p, rest.name)
			delete(in.files, rest.name)
			return nil
		})
	case "drop":
		return in.withClient(rest, func(p *sim.Proc, cl *pvfs.Client) error {
			for _, s := range in.cluster.Servers {
				s.FS().DropCaches(p)
			}
			return nil
		})
	case "stats":
		fmt.Fprintf(in.out, "%v\n", in.cluster.Snapshot())
		return nil
	case "time":
		fmt.Fprintf(in.out, "t=%v\n", in.cluster.Eng.Now())
		return nil
	case "fault":
		return in.cmdFault(rest)
	case "trace":
		return in.cmdTrace(rest)
	case "cache":
		return in.cmdCache(rest)
	case "metrics":
		return in.cmdMetrics(rest)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func (in *Interp) cmdCluster(a *args) error {
	if in.cluster != nil {
		return fmt.Errorf("cluster already created")
	}
	servers, clients, stripe := a.num("servers", 4), a.num("clients", 1), a.num("stripe", 0)
	if a.err != nil {
		return a.err
	}
	cfg := pvfs.DefaultConfig()
	if a.str("wire", "") == "stream" {
		cfg = pvfs.ConventionalConfig()
	}
	if stripe > 0 {
		cfg.StripeSize = stripe
	}
	in.cluster = pvfs.NewCluster(sim.NewEngine(), cfg, int(servers), int(clients))
	fmt.Fprintf(in.out, "cluster: %d servers, %d clients, stripe %d, wire %v\n",
		servers, clients, cfg.StripeSize, cfg.Wire)
	return nil
}

// app runs fn as one application process and drives the cluster.
func (in *Interp) app(fn func(p *sim.Proc) error) error {
	var ferr error
	in.cluster.Eng.Go("ctl", func(p *sim.Proc) { ferr = fn(p) })
	if err := in.cluster.Run(); err != nil {
		return err
	}
	return ferr
}

// withClient checks every option the command has read, then runs fn as
// one application process on the client that client= names.
func (in *Interp) withClient(a *args, fn func(p *sim.Proc, cl *pvfs.Client) error) error {
	idx := a.num("client", 0)
	if a.err != nil {
		return a.err
	}
	if idx < 0 || int(idx) >= len(in.cluster.Clients) {
		return fmt.Errorf("client %d out of range", idx)
	}
	cl := in.cluster.Clients[idx]
	return in.app(func(p *sim.Proc) error { return fn(p, cl) })
}

// withFile is withClient on the named file, opened (and kept) for the
// client on first use.
func (in *Interp) withFile(a *args, fn func(p *sim.Proc, fh *pvfs.FileHandle) error) error {
	if a.name == "" {
		return fmt.Errorf("missing file name")
	}
	stripe := a.num("stripe", 0)
	return in.withClient(a, func(p *sim.Proc, cl *pvfs.Client) error {
		return fn(p, in.handle(p, cl, a.name, stripe))
	})
}

// handle opens (and caches) the named file for the client.
func (in *Interp) handle(p *sim.Proc, cl *pvfs.Client, name string, stripe int64) *pvfs.FileHandle {
	idx := 0
	for i, c := range in.cluster.Clients {
		if c == cl {
			idx = i
		}
	}
	byClient, ok := in.files[name]
	if !ok {
		byClient = map[int]*pvfs.FileHandle{}
		in.files[name] = byClient
	}
	if fh, ok := byClient[idx]; ok {
		return fh
	}
	fh := cl.OpenStriped(p, name, stripe)
	byClient[idx] = fh
	return fh
}

// cached returns (creating on first use) the page cache wrapping fh when
// caching is on, nil otherwise. Caches are per (file, client), like real
// client-side buffer caches.
func (in *Interp) cached(fh *pvfs.FileHandle) *pcache.File {
	if in.cacheCfg == nil {
		return nil
	}
	idx := 0
	for i, c := range in.cluster.Clients {
		if c == fh.Client() {
			idx = i
		}
	}
	byClient, ok := in.caches[fh.Name()]
	if !ok {
		byClient = map[int]*pcache.File{}
		in.caches[fh.Name()] = byClient
	}
	if f, ok := byClient[idx]; ok {
		return f
	}
	f := pcache.New(fh, *in.cacheCfg)
	byClient[idx] = f
	return f
}

// forEachCache visits every live cache in deterministic (name, client)
// order.
func (in *Interp) forEachCache(fn func(name string, idx int, f *pcache.File) error) error {
	names := make([]string, 0, len(in.caches))
	for name := range in.caches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		byClient := in.caches[name]
		idxs := make([]int, 0, len(byClient))
		for idx := range byClient {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			if err := fn(name, idx, byClient[idx]); err != nil {
				return err
			}
		}
	}
	return nil
}

// cmdCache controls the client-side page cache plane: 'on' arms a
// configuration that wraps every subsequent file command, 'stats' prints
// the cache and lease counters plus per-cache residency, 'flush' drains
// write-behind state, 'off' flushes, releases leases, and detaches.
func (in *Interp) cmdCache(a *args) error {
	switch a.name {
	case "on":
		cfg := pcache.DefaultConfig()
		cfg.PageSize = a.num("pagesize", cfg.PageSize)
		cfg.Pages = int(a.num("pages", int64(cfg.Pages)))
		cfg.DirtyHighWater = int(a.num("highwater", int64(cfg.DirtyHighWater)))
		if ra := a.num("readahead", int64(cfg.ReadAhead)); ra <= 0 {
			cfg.NoReadAhead = true
		} else {
			cfg.ReadAhead = int(ra)
		}
		cfg.WriteThrough = a.num("wt", 0) != 0
		if a.err != nil {
			return a.err
		}
		in.cacheCfg = &cfg
		fmt.Fprintf(in.out, "caching on: %d x %dB pages, highwater %d, readahead %d, writethrough %v\n",
			cfg.Pages, cfg.PageSize, cfg.DirtyHighWater, cfg.ReadAhead, cfg.WriteThrough)
		return nil
	case "stats":
		s := in.cluster.Snapshot()
		fmt.Fprintf(in.out, "cache: hit#=%d miss#=%d ra#=%d wb=%dB coalesce#=%d\n",
			s.CacheHits, s.CacheMisses, s.CacheReadAheads, s.WriteBehindBytes, s.CoalescedFlushes)
		fmt.Fprintf(in.out, "lease: req#=%d grant#=%d recall#=%d\n",
			s.LeaseReqs, s.LeaseGrants, s.LeaseRecalls)
		return in.forEachCache(func(name string, idx int, f *pcache.File) error {
			pages, dirty := f.Resident()
			fmt.Fprintf(in.out, "%s@cn%d: %d pages resident, %d dirty\n", name, idx, pages, dirty)
			return nil
		})
	case "flush":
		err := in.app(func(p *sim.Proc) error {
			return in.forEachCache(func(_ string, _ int, f *pcache.File) error {
				return f.Flush(p)
			})
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(in.out, "caches flushed")
		return nil
	case "off":
		if in.cacheCfg == nil && len(in.caches) == 0 {
			fmt.Fprintln(in.out, "caching already off")
			return nil
		}
		var err error
		if len(in.caches) > 0 {
			err = in.app(func(p *sim.Proc) error {
				return in.forEachCache(func(_ string, _ int, f *pcache.File) error {
					return f.Close(p)
				})
			})
		}
		in.caches = make(map[string]map[int]*pcache.File)
		in.cacheCfg = nil
		if err != nil {
			return err
		}
		fmt.Fprintln(in.out, "caching off")
		return nil
	default:
		return fmt.Errorf("cache wants 'on', 'stats', 'flush', or 'off'")
	}
}

func (in *Interp) cmdOpen(a *args) error {
	return in.withFile(a, func(p *sim.Proc, fh *pvfs.FileHandle) error {
		fmt.Fprintf(in.out, "opened %s (stripe %d)\n", fh.Name(), fh.StripeSize())
		return nil
	})
}

// opOptions parses method/sieve options.
func opOptions(a *args) pvfs.OpOptions {
	var opts pvfs.OpOptions
	switch m := a.str("method", "hybrid"); m {
	case "hybrid":
	case "pack":
		opts.Transfer = pvfs.ForcePack
	case "gather":
		opts.Transfer = pvfs.ForceGather
	default:
		a.fail("unknown method %q", m)
	}
	switch s := a.str("sieve", "auto"); s {
	case "auto":
		opts.Sieve = sieve.Auto
	case "always":
		opts.Sieve = sieve.Always
	case "never":
		opts.Sieve = sieve.Never
	default:
		a.fail("unknown sieve mode %q", s)
	}
	return opts
}

// pattern fills n bytes derived from seed.
func pattern(n int64, seed int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed + int64(i)*7)
	}
	return b
}

func (in *Interp) cmdContig(cmd string, a *args) error {
	length, off, seed := a.num("len", 4096), a.num("off", 0), a.num("seed", 0)
	opts := opOptions(a)
	_, hasVerify := a.kv["verify"]
	vseed := a.num("verify", 0)
	return in.withFile(a, func(p *sim.Proc, fh *pvfs.FileHandle) error {
		cl := fh.Client()
		var err error
		addr := cl.Space().Malloc(length)
		t0 := p.Now()
		cf := in.cached(fh)
		if cmd == "write" {
			if err := cl.Space().Write(addr, pattern(length, seed)); err != nil {
				return err
			}
			if cf != nil {
				err = cf.Write(p, addr, length, off)
			} else {
				err = fh.Write(p, addr, length, off, opts)
			}
			if err != nil {
				return err
			}
		} else {
			if cf != nil {
				err = cf.Read(p, addr, length, off)
			} else {
				err = fh.Read(p, addr, length, off, opts)
			}
			if err != nil {
				return err
			}
			if hasVerify {
				got, err := cl.Space().Read(addr, length)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, pattern(length, vseed)) {
					return fmt.Errorf("verification failed")
				}
			}
		}
		fmt.Fprintf(in.out, "%s %s: %d bytes in %v (%.1f MB/s)\n",
			cmd, fh.Name(), length, p.Now().Sub(t0), mbps(length, p.Now().Sub(t0)))
		return nil
	})
}

func (in *Interp) cmdList(cmd string, a *args) error {
	count, size := a.num("count", 16), a.num("size", 512)
	fstride, foff, mstride := a.num("fstride", size*2), a.num("foff", 0), max(a.num("mstride", size), size)
	seed := a.num("seed", 0)
	opts := opOptions(a)
	_, hasVerify := a.kv["verify"]
	vseed := a.num("verify", 0)
	return in.withFile(a, func(p *sim.Proc, fh *pvfs.FileHandle) error {
		cl := fh.Client()
		var err error
		base := cl.Space().Malloc(count * mstride)
		var segs []ib.SGE
		var accs []pvfs.OffLen
		for i := int64(0); i < count; i++ {
			segs = append(segs, ib.SGE{Addr: base + mem.Addr(i*mstride), Len: size})
			accs = append(accs, pvfs.OffLen{Off: foff + i*fstride, Len: size})
		}
		total := count * size
		t0 := p.Now()
		cf := in.cached(fh)
		if cmd == "writelist" {
			data := pattern(total, seed)
			for i, s := range segs {
				if err := cl.Space().Write(s.Addr, data[int64(i)*size:int64(i+1)*size]); err != nil {
					return err
				}
			}
			if cf != nil {
				err = cf.WriteList(p, segs, accs)
			} else {
				err = fh.WriteList(p, segs, accs, opts)
			}
			if err != nil {
				return err
			}
		} else {
			if cf != nil {
				err = cf.ReadList(p, segs, accs)
			} else {
				err = fh.ReadList(p, segs, accs, opts)
			}
			if err != nil {
				return err
			}
			if hasVerify {
				want := pattern(total, vseed)
				for i, s := range segs {
					got, err := cl.Space().Read(s.Addr, size)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, want[int64(i)*size:int64(i+1)*size]) {
						return fmt.Errorf("verification failed at piece %d", i)
					}
				}
			}
		}
		fmt.Fprintf(in.out, "%s %s: %d x %dB in %v (%.1f MB/s)\n",
			cmd, fh.Name(), count, size, p.Now().Sub(t0), mbps(total, p.Now().Sub(t0)))
		return nil
	})
}

// cmdFault scripts the fault plane. 'inject' parses a complete plan from
// one line and attaches it (replacing any previous plan — the injector's
// random stream and counters start fresh); 'clear' detaches everything;
// 'list' shows the active plan and what the injector has done so far.
// Daemon crashes already planted on the timeline by an earlier inject
// still fire after clear, like a real scheduled outage would.
func (in *Interp) cmdFault(a *args) error {
	switch a.name {
	case "inject":
		plan := in.parsePlan(a)
		if a.err != nil {
			return a.err
		}
		if plan.Empty() {
			return fmt.Errorf("empty plan: set wr=, reg=, diskerr=, diskslow=, cut=, spike=, or crash=")
		}
		in.cluster.AttachFaults(plan)
		in.plan = plan
		fmt.Fprintf(in.out, "faults attached: %s\n", describePlan(plan))
		return nil
	case "clear":
		in.cluster.AttachFaults(nil)
		in.plan = nil
		fmt.Fprintln(in.out, "faults cleared")
		return nil
	case "list":
		if in.cluster.Faults == nil {
			fmt.Fprintln(in.out, "no faults attached")
			return nil
		}
		fmt.Fprintf(in.out, "plan: %s\n", describePlan(in.plan))
		fmt.Fprintf(in.out, "injected: %v\n", in.cluster.Faults.Totals())
		return nil
	default:
		return fmt.Errorf("fault wants 'inject', 'clear', or 'list'")
	}
}

// parsePlan builds a fault plan from one inject line, recording the first
// bad option in a. Rates are probabilities in [0,1];
// cut=A:B:AT:DUR, spike=FROM:TO:AT:DUR:EXTRA, and crash=SERVER:AT:DOWN
// take microseconds and accept comma-separated lists.
func (in *Interp) parsePlan(a *args) *fault.Plan {
	plan := &fault.Plan{Seed: a.num("seed", 1)}
	for _, r := range []struct {
		key string
		dst *float64
	}{
		{"wr", &plan.WRErrorRate},
		{"reg", &plan.RegFailRate},
		{"diskerr", &plan.DiskErrorRate},
		{"diskslow", &plan.DiskSlowRate},
	} {
		if *r.dst = a.float(r.key, 0); *r.dst < 0 || *r.dst > 1 {
			a.fail("%s=%g out of [0,1]", r.key, *r.dst)
		}
	}
	us := func(n int64) sim.Duration { return sim.Duration(n) * 1000 }
	for _, spec := range splitSpecs(a.str("cut", "")) {
		if v := splitInts(a, "cut", spec, 4); v != nil {
			plan.Cuts = append(plan.Cuts, fault.Cut{
				A: int(v[0]), B: int(v[1]), At: us(v[2]), Dur: us(v[3])})
		}
	}
	for _, spec := range splitSpecs(a.str("spike", "")) {
		if v := splitInts(a, "spike", spec, 5); v != nil {
			plan.Spikes = append(plan.Spikes, fault.Spike{
				From: int(v[0]), To: int(v[1]), At: us(v[2]), Dur: us(v[3]), Extra: us(v[4])})
		}
	}
	for _, spec := range splitSpecs(a.str("crash", "")) {
		v := splitInts(a, "crash", spec, 3)
		if v == nil {
			continue
		}
		if srv := int(v[0]); srv <= 0 || srv >= len(in.cluster.Servers) {
			a.fail("crash server %d out of range (1..%d; server 0 hosts the manager)",
				srv, len(in.cluster.Servers)-1)
		} else {
			plan.Crashes = append(plan.Crashes, fault.Crash{Server: srv, At: us(v[1]), Down: us(v[2])})
		}
	}
	return plan
}

func splitSpecs(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// splitInts parses one colon-separated spec of want ints, or records why
// it cannot in a and returns nil.
func splitInts(a *args, what, spec string, want int) []int64 {
	parts := strings.Split(spec, ":")
	if len(parts) != want {
		a.fail("bad %s=%q: want %d colon-separated ints", what, spec, want)
		return nil
	}
	out := make([]int64, want)
	for i, p := range parts {
		n, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			a.fail("bad %s=%q: %q is not an int", what, spec, p)
			return nil
		}
		out[i] = n
	}
	return out
}

func describePlan(pl *fault.Plan) string {
	var parts []string
	add := func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	if pl.WRErrorRate > 0 {
		add("wr=%g", pl.WRErrorRate)
	}
	if pl.RegFailRate > 0 {
		add("reg=%g", pl.RegFailRate)
	}
	if pl.DiskErrorRate > 0 {
		add("diskerr=%g", pl.DiskErrorRate)
	}
	if pl.DiskSlowRate > 0 {
		add("diskslow=%g", pl.DiskSlowRate)
	}
	for _, c := range pl.Cuts {
		add("cut %d<->%d @%v+%v", c.A, c.B, c.At, c.Dur)
	}
	for _, s := range pl.Spikes {
		add("spike %d->%d @%v+%v extra=%v", s.From, s.To, s.At, s.Dur, s.Extra)
	}
	for _, c := range pl.Crashes {
		add("crash io%d @%v down=%v", c.Server, c.At, c.Down)
	}
	add("seed=%d", pl.Seed)
	return strings.Join(parts, ", ")
}

// cmdTrace controls the span plane: 'on' (or 'spans') attaches the
// tracer, 'dump' prints the spans that completed last — fault instants
// included — one per line, 'profile' prints the critical-path breakdown,
// 'export' writes a Perfetto trace, 'off' detaches the tracer.
func (in *Interp) cmdTrace(a *args) error {
	tr := in.cluster.Spans
	switch a.name {
	case "spans", "on":
		in.cluster.EnableSpans()
		fmt.Fprintln(in.out, "span tracing on")
		return nil
	case "off":
		in.cluster.DisableSpans()
		fmt.Fprintln(in.out, "span tracing off")
		return nil
	}
	if tr == nil {
		return fmt.Errorf("span tracing not enabled (run 'trace spans')")
	}
	switch a.name {
	case "profile":
		return tr.Profile().WriteBreakdown(in.out)
	case "export":
		path := a.str("file", "")
		if path == "" {
			return fmt.Errorf("export wants file=PATH")
		}
		return in.writeTo(path, tr.WritePerfetto, func() string {
			return fmt.Sprintf("exported %d spans to %s\n", tr.Len(), path)
		})
	case "dump":
		n := a.num("last", 10)
		if a.err != nil {
			return a.err
		}
		// Completion order, so the rows that close a request — its last
		// attempt, the operation itself — are the last ones printed.
		spans := tr.Spans()
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].End < spans[j].End })
		if n >= 0 && int64(len(spans)) > n {
			spans = spans[int64(len(spans))-n:]
		}
		path := a.str("file", "")
		return in.writeTo(path, func(w io.Writer) error {
			for _, sp := range spans {
				detail := sp.Attrs
				if sp.Err != "" {
					detail = strings.TrimSpace(detail + " err=" + sp.Err)
				}
				fmt.Fprintf(w, "%12.1fus %-6s %-14s %8dB %s\n",
					float64(sp.End)/1000, sp.Node, sp.Kind, sp.Bytes, detail)
			}
			return nil
		}, func() string { return fmt.Sprintf("dumped %d spans to %s\n", len(spans), path) })
	default:
		return fmt.Errorf("trace wants 'on', 'dump', 'spans', 'profile', 'export', or 'off'")
	}
}

// cmdMetrics controls the virtual-time metrics plane: 'on' attaches a
// registry sampling every layer on the engine clock, 'dump' exports the
// sampled series (indented JSON or Prometheus text, to the session
// output or a file), 'rate' prints the trailing per-interval values of
// each series aggregated across nodes, 'top' prints the engine's
// execution telemetry, and 'off' detaches the registry, restoring the
// zero-cost no-op sinks. Everything except 'top' is deterministic;
// 'top' describes the execution (per-shard event counts), which depends
// on the shard count and must never feed a determinism-checked artifact.
func (in *Interp) cmdMetrics(a *args) error {
	switch a.name {
	case "dump", "rate":
		if in.mx == nil {
			return fmt.Errorf("metrics not enabled (run 'metrics on')")
		}
	}
	switch a.name {
	case "on":
		us, depth := a.num("interval", 50), a.num("depth", 2048)
		if a.err != nil {
			return a.err
		}
		if us <= 0 || depth <= 0 {
			return fmt.Errorf("interval and depth must be positive")
		}
		in.mx = in.cluster.EnableMetrics(metrics.Config{
			Interval: sim.Duration(us) * 1000,
			Depth:    int(depth),
		})
		fmt.Fprintf(in.out, "metrics on: interval %dus, depth %d\n", us, depth)
		return nil
	case "dump":
		now := in.cluster.Eng.Now()
		write := func(w io.Writer) error {
			switch f := a.str("format", "json"); f {
			case "json":
				return in.mx.WriteJSON(w, now)
			case "prom":
				return in.mx.WritePromText(w, now)
			default:
				return fmt.Errorf("unknown format %q (want json or prom)", f)
			}
		}
		path := a.str("file", "")
		return in.writeTo(path, write, func() string {
			return fmt.Sprintf("dumped %d series to %s\n", len(in.mx.Snapshot(now)), path)
		})
	case "rate":
		last, filter := a.num("last", 5), a.str("name", "")
		if a.err != nil {
			return a.err
		}
		sums := metrics.SumByName(in.mx.Snapshot(in.cluster.Eng.Now()))
		var names []string
		for name := range sums {
			if filter == "" || name == filter {
				names = append(names, name)
			}
		}
		if filter != "" && len(names) == 0 {
			return fmt.Errorf("no series named %q", filter)
		}
		sort.Strings(names)
		ivUS := int64(in.mx.Interval()) / 1000
		for _, name := range names {
			g := sums[name]
			vals := g.Vals
			if int64(len(vals)) > last {
				vals = vals[int64(len(vals))-last:]
			}
			fmt.Fprintf(in.out, "%-22s %-7s total=%-12d last %dx%dus: %v\n",
				name, g.Kind, g.Total, len(vals), ivUS, vals)
		}
		return nil
	case "top":
		tel := in.cluster.Eng.Telemetry()
		fmt.Fprintf(in.out, "engine: shards=%d windows=%d events=%d crossings=%d imbalance=%.2f\n",
			len(tel.Shards), tel.Windows, tel.TotalEvents(), tel.Crossings(), tel.Imbalance())
		for i, s := range tel.Shards {
			fmt.Fprintf(in.out, "shard %d: events=%d ingested=%d maxwindow=%d\n",
				i, s.Events, s.Ingested, s.MaxWindowEvents)
		}
		return nil
	case "off":
		if in.mx == nil {
			fmt.Fprintln(in.out, "metrics already off")
			return nil
		}
		in.cluster.DisableMetrics()
		in.mx = nil
		fmt.Fprintln(in.out, "metrics off")
		return nil
	default:
		return fmt.Errorf("metrics wants 'on', 'dump', 'rate', 'top', or 'off'")
	}
}

// writeTo runs write against the file at path and then prints report()
// on the session output, or against the session output itself (no report)
// when path is empty.
func (in *Interp) writeTo(path string, write func(io.Writer) error, report func() string) error {
	if path == "" {
		return write(in.out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprint(in.out, report())
	return nil
}

func mbps(n int64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds() / (1 << 20)
}
