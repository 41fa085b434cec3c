//go:build race

package hybrid_test

func init() { raceEnabled = true }
