// Command pvfsctl runs a simple command language against a simulated PVFS
// cluster — scripted experiments without writing Go.
//
//	pvfsctl -script demo.pvfs
//	echo "cluster servers=4 clients=1
//	open data
//	writelist data count=64 size=512 fstride=2048 seed=7
//	readlist data count=64 size=512 fstride=2048 verify=7
//	stats" | pvfsctl
//
// Beyond file I/O, scripts drive the fault plane (fault inject/list/clear),
// the trace plane (trace on/dump/profile/export/off), and the client-side page
// cache (cache on/stats/flush/off). See internal/ctl for the full command
// list.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pvfsib/internal/ctl"
)

func main() {
	script := flag.String("script", "", "script file (default: stdin)")
	flag.Parse()

	var src io.Reader = os.Stdin
	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		src = f
	}
	if err := ctl.New(os.Stdout).Run(src); err != nil {
		fmt.Fprintln(os.Stderr, "pvfsctl:", err)
		os.Exit(1)
	}
}
