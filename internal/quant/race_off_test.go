//go:build !race

package quant

// raceEnabled mirrors race_on_test.go for regular builds.
const raceEnabled = false
