package localfs

import (
	"testing"

	"pvfsib/internal/sim"
)

// benchFile runs body in a process of a file system holding one cached
// 8 MB file; the timer starts when body does.
func benchFile(b *testing.B, body func(p *sim.Proc, fs *FS, f *File)) {
	b.ReportAllocs()
	eng, fs := newFS(b)
	defer eng.Shutdown()
	runSim(b, eng, func(p *sim.Proc) {
		f := fs.Open(p, "k")
		f.WriteAt(p, 0, make([]byte, 8<<20))
		b.ResetTimer()
		body(p, fs, f)
	})
}

func BenchmarkFileWriteAt64k(b *testing.B) {
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	benchFile(b, func(p *sim.Proc, _ *FS, f *File) {
		for i := 0; i < b.N; i++ {
			f.WriteAt(p, int64(i%128)*(64<<10), data)
		}
	})
}

func BenchmarkFileReadInto64k(b *testing.B) {
	dst := make([]byte, 64<<10)
	b.SetBytes(int64(len(dst)))
	benchFile(b, func(p *sim.Proc, _ *FS, f *File) {
		for i := 0; i < b.N; i++ {
			f.ReadInto(p, int64(i%128)*(64<<10), dst)
		}
	})
}

// A scratch file's life in the ledger's rounds: created, 1 MB written,
// removed.
func BenchmarkFileCreateRemove1M(b *testing.B) {
	data := make([]byte, 1<<20)
	benchFile(b, func(p *sim.Proc, fs *FS, _ *File) {
		for i := 0; i < b.N; i++ {
			fs.Open(p, "scratch").WriteAt(p, 0, data)
			fs.Remove(p, "scratch")
		}
	})
}
