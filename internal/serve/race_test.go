//go:build race

package serve_test

func init() { raceEnabled = true }
