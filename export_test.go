package soferr

// NormalizeQuery exposes the memo-key normalization to the external
// test package.
var NormalizeQuery = Query.normalize
