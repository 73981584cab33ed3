package solver

// Effort returns the searches an oracle ran and the nodes they expanded.
func (e *effort) Effort() (searches, nodes int64) { return e.searches, e.nodes }
