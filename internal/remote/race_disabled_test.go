//go:build !race

package remote

// raceEnabled reports that the race detector is instrumenting this
// build; allocation ceilings are meaningless under it (it empties
// sync.Pools at random).
const raceEnabled = false
