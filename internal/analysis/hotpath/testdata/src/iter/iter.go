// Package iter is a corpus stub. Pull's body is empty on purpose: the
// hotpath analyzer must recognize the func values it hands out by where
// they come from, not by what a stub body happens to contain.
package iter

type Seq[V any] func(yield func(V) bool)

func Pull[V any](seq Seq[V]) (next func() (V, bool), stop func()) { return nil, nil }
