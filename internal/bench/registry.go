package bench

import (
	"fmt"
	"sort"
)

// RunOpts parameterizes one experiment run.
type RunOpts struct {
	// Short selects the reduced sweeps.
	Short bool
	// Seed feeds the experiments that draw randomness (today only the
	// fault plane); deterministic sweeps ignore it. The same seed always
	// reproduces the same tables.
	Seed int64
	// Parallel bounds the cell worker pool; 0 or less means GOMAXPROCS.
	// Every experiment's output is byte-identical for every value.
	Parallel int
	// Shards partitions each cell's simulation engine into that many
	// parallel shards (see sim.Engine.SetShards). Cell output is
	// byte-identical for every value; only host wall-clock changes.
	// Zero or one keeps the single-threaded engine. Experiments that
	// build sharded clusters (faults, cache, scale, extra-scaling,
	// timeline) honor it.
	Shards int
}

// Experiment is one reproducible table or figure, declared as data: what
// the table looks like and the sweep of independent cells that fills it.
type Experiment struct {
	ID    string
	Title string // the -list line

	// table, header and notes describe the result table: its title (with
	// the paper's reference values where the paper states them), column
	// names, and the static footnotes printed after any computed ones.
	table  string
	header []string
	notes  []string
	// sweep declares the experiment's row groups for the given options —
	// axes, typed cell function and row renderer (see grid); Run executes
	// them.
	sweep func(o RunOpts) []group
}

// Registry lists every experiment in paper order, then the ablations.
var Registry = []Experiment{
	table2, table3, fig3, fig4, table4, fig6, fig7, fig8, fig9, table5, table6,
	ablationSGE, ablationHybrid, ablationADSModel, ablationOGRGroup, ablationNetwork, ablationRegThrash,
	extraNoncontig, extraDiskSpeed, extraScaling, extraAppAware, extraQueryMethod,
	faults, scale, breakdown, cache, timeline,
}

// Lookup finds an experiment by id: one of Registry, or HostCost.
func Lookup(id string) (Experiment, error) {
	known := append(Registry[:len(Registry):len(Registry)], HostCost)
	for _, e := range known {
		if e.ID == id {
			return e, nil
		}
	}
	ids := make([]string, len(known))
	for i, e := range known {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}
