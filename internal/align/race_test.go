//go:build race

package align

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// a share of its Puts on purpose, so pooled-scratch allocation counts hold
// only without it.
const raceEnabled = true
