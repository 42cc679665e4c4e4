//go:build race

package rtr

func init() { raceEnabled = true }
