//go:build race

package transport

// raceEnabled: the race detector adds allocations of its own, so the
// allocation budgets do not hold under it.
const raceEnabled = true
