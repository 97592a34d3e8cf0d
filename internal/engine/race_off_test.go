//go:build !race

package engine_test

// raceEnabled reports whether the race detector instruments this build.
// sync.Pool intentionally drops items under the race detector, so
// allocation counts that depend on warm pools only repeat without it.
const raceEnabled = false
