//go:build race

package doe

// raceEnabled reports a -race build.
const raceEnabled = true
