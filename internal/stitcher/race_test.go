//go:build race

package stitcher

func init() { raceEnabled = true }
