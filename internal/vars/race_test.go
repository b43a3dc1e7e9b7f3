//go:build race

package vars

// The regex oracle runs some twenty times slower under the race detector,
// which has nothing to find in a pure function of one string.
func init() { parityLinesPerShard /= 10 }
