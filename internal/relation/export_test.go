package relation

import "testing"

// SetMaxRows lowers the row limit for the duration of a test, for the
// external tests that drive it through the facade and the server.
func SetMaxRows(t testing.TB, n int) {
	old := maxRows
	maxRows = n
	t.Cleanup(func() { maxRows = old })
}

// SetMaxValues lowers the intern table's value limit for the duration of a
// test; the table is process-wide, so a test sets it relative to
// Global.Len().
func SetMaxValues(t testing.TB, n int) {
	old := maxValues
	maxValues = uint64(n)
	t.Cleanup(func() { maxValues = old })
}

// SetHashBits narrows every row hash to its low n bits for the duration of a
// test, so that distinct rows share a hash and each probe's verification of
// its chain has candidates to turn away.
func SetHashBits(t testing.TB, n int) {
	old := hashMask
	hashMask = 1<<n - 1
	t.Cleanup(func() { hashMask = old })
}
