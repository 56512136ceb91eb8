//go:build race

package snmp

// raceEnabled reports whether the race detector is on. Under it
// sync.Pool drops a quarter of all Puts on purpose, so byte budgets that
// rely on pooling do not hold.
const raceEnabled = true
