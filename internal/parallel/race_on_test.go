//go:build race

package parallel

// raceEnabled skips exact allocation checks under the race detector:
// its sync.Pool instrumentation drops a random fraction of Puts, so the
// pooled region contexts miss sporadically.
const raceEnabled = true
