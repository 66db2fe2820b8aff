// Package hotboundary exercises the stale-suppression report on hotalloc's
// function-level cold boundaries: a boundary a hot path reaches stopped
// propagation and is used, even though no finding lands on its line; a
// boundary no hot path reaches is stale.
package hotboundary

import "fmt"

// Read is the hot seed.
//
//lint:hotpath
func Read(n int) error {
	if n < 0 {
		return readErr(n)
	}
	return nil
}

// readErr is Read's error tail behind a cold boundary: used.
//
//lint:allow hotalloc(fixture: cold error tail of a hot path)
func readErr(n int) error {
	return fmt.Errorf("bad length %d", n)
}

// Setup is not reachable from any hot path, so its boundary stops nothing.
//
//lint:allow hotalloc(fixture: stale, no hot path reaches this) // want `stale suppression: no hotalloc finding on this line anymore`
func Setup(n int) []int {
	return make([]int, n)
}
