package solver

// Effort returns the searches an oracle ran and the nodes they expanded.
func (e *effort) Effort() (searches, nodes int64) { return e.searches, e.nodes }

// Carries returns the searches that answered NO and the calls answered by
// the carried certificate and by the NO snapshot.
func (e *effort) Carries() (noSearches, yesCarries, noCarries int64) {
	return e.noSearches, e.yesCarries, e.noCarries
}
