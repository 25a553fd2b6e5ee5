//go:build !race

package packet

const RaceEnabled = false
