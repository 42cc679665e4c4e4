//go:build race

package vm

func init() { raceEnabled = true }
