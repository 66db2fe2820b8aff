//go:build go1.23

package sim

import "iter"

// pull turns a process body into a coroutine. It is the one use of iter.Pull,
// kept in its own file so the module can declare an older go version while
// this file, and with it the coroutine switch, builds with Go 1.23 or later.
func pull(seq iter.Seq[struct{}]) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(seq)
}
