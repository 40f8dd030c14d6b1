//go:build !race

package bccdhttp

const raceEnabled = false
