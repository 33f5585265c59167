package bench

import (
	"slices"

	"pvfsib/internal/disk"
	"pvfsib/internal/localfs"
	"pvfsib/internal/sim"
)

// table3Result carries the four bonnie measurements of one run.
type table3Result struct{ wCold, rCold, wWarm, rWarm float64 }

// table3 reproduces the paper's Table 3: local ext3 file-system sequential
// read and write bandwidth with and without cache effects (the paper used
// the bonnie benchmark). A single cell: the bonnie phases share one file
// system state, so they cannot split.
var table3 = Experiment{
	ID:    "table3",
	Title: "Local file system sequential bandwidth, MB/s (Table 3)",
	paper: slices.Concat(
		column("write_MB_s", "calibration target", []string{"without cache", "with cache"}, 25, 303),
		column("read_MB_s", "calibration target", []string{"without cache", "with cache"}, 20, 1391),
	),
	header: []string{"case", "write_MB_s", "read_MB_s"},
	sweep: func(o RunOpts) []group {
		return each([]int64{pick[int64](o.Short, 16*MB, 64*MB)}, table3Cell,
			func(t *Table, _ int64, r table3Result) {
				t.Add("without cache", r.wCold, r.rCold)
				t.Add("with cache", r.wWarm, r.rWarm)
			})
	},
}

func table3Cell(total int64) table3Result {
	const chunk = 1 << 20

	eng := sim.NewEngine()
	d := disk.New(eng, "disk", disk.DefaultParams())
	fs := localfs.New(eng, d, localfs.DefaultParams())

	var r table3Result
	eng.Go("bonnie", func(p *sim.Proc) {
		f := fs.Open(p, "bonnie")
		buf := make([]byte, chunk)
		// pass times one sequential sweep over the file, then a sync when
		// asked, in MB/s.
		pass := func(write, sync bool) float64 {
			t0 := p.Now()
			for off := int64(0); off < total; off += chunk {
				if write {
					f.WriteAt(p, off, buf)
				} else {
					f.ReadAt(p, off, chunk)
				}
			}
			if sync {
				f.Sync(p)
			}
			return bw(total, p.Now().Sub(t0))
		}
		// Without cache: write the file and force it to the media, then
		// drop caches and read it sequentially.
		r.wCold = pass(true, true)
		fs.DropCaches(p)
		r.rCold = pass(false, false)
		// With cache: rewrite while everything is resident (no sync) and
		// reread the cached file.
		r.wWarm = pass(true, false)
		r.rWarm = pass(false, false)
	})
	sim.Must(eng.Run())
	retire(eng, HostWork{}, eng.Telemetry(), fs)
	return r
}
