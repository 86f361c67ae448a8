//go:build race

package cluster

// raceEnabled: under the race detector sync.Pool drops items at random,
// so exact allocation pins do not hold.
const raceEnabled = true
