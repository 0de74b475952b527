package soferr

// NormalizeQuery exposes the memo-key normalization to the external
// test package.
var NormalizeQuery = Query.normalize

// ErrCellPanic exposes the sweep's cell-panic sentinel to the external
// test package.
var ErrCellPanic = errCellPanic
