//go:build race

package packet

// RaceEnabled reports whether the race detector is on. Such builds
// retire killed headers instead of recycling them, so that a use after
// Kill panics; the allocation gates skip themselves there.
const RaceEnabled = true
