//go:build race

package gpu

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
