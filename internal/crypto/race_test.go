//go:build race

package crypto

// raceEnabled gates the AllocsPerRun assertions: sync.Pool drops items
// at random under the race detector, so pooled paths allocate there.
const raceEnabled = true
