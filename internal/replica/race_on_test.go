//go:build race

package replica

// raceEnabled scales test settle windows: under the race detector a
// checkpoint Save (flate over every shard) takes several times longer.
const raceEnabled = true
