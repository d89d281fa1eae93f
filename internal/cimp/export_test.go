package cimp

// SetMemoBound forces the bounds of ix's configuration tables — the size
// a table starts at and the size it may grow to — so tests can make
// tables retire every few configurations. Call it before ix is stepped.
func SetMemoBound[S any](ix *Index[S], base, max uint32) { ix.memoBase, ix.memoMax = base, max }
