//go:build !race

package agg

// raceEnabled reports whether this test binary was built with the race
// detector. The allocation gates skip under race: race-mode sync.Pools
// deliberately drop a fraction of Puts, so the pooled decoder's reuse
// is not measurable there. The non-race CI step enforces the gates.
const raceEnabled = false
