package relation

import "testing"

// SetMaxRows lowers the row limit for the duration of a test, for the
// external tests that drive it through the facade and the server.
func SetMaxRows(t testing.TB, n int) {
	old := maxRows
	maxRows = n
	t.Cleanup(func() { maxRows = old })
}
