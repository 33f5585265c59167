package bench

import (
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
	ID:     "table3",
	Title:  "Local file system performance (Table 3)",
	table:  "File system performance (paper: write 25/303 MB/s, read 20/1391 MB/s)",
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

	var wCold, rCold, wWarm, rWarm float64
	eng.Go("bonnie", func(p *sim.Proc) {
		f := fs.Open(p, "bonnie")
		buf := make([]byte, chunk)

		// Without cache: write the file and force it to the media.
		t0 := p.Now()
		for off := int64(0); off < total; off += chunk {
			f.WriteAt(p, off, buf)
		}
		f.Sync(p)
		wCold = bw(total, p.Now().Sub(t0))

		// Without cache: drop caches, then read sequentially.
		fs.DropCaches(p)
		t0 = p.Now()
		for off := int64(0); off < total; off += chunk {
			f.ReadAt(p, off, chunk)
		}
		rCold = bw(total, p.Now().Sub(t0))

		// With cache: rewrite while everything is resident (no sync) and
		// reread the cached file.
		t0 = p.Now()
		for off := int64(0); off < total; off += chunk {
			f.WriteAt(p, off, buf)
		}
		wWarm = bw(total, p.Now().Sub(t0))
		t0 = p.Now()
		for off := int64(0); off < total; off += chunk {
			f.ReadAt(p, off, chunk)
		}
		rWarm = bw(total, p.Now().Sub(t0))
	})
	sim.Must(eng.Run())
	retire(eng, HostWork{}, eng.Telemetry(), fs)
	return table3Result{wCold, rCold, wWarm, rWarm}
}
