//go:build race

package bitrand

func init() { raceEnabled = true }
