//go:build !race

package parallel

// raceEnabled skips exact allocation checks under the race detector;
// see race_on_test.go.
const raceEnabled = false
