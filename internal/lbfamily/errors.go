package lbfamily

import (
	"fmt"

	"congesthard/internal/comm"
)

// CancelledError reports a sweep (verification or certification)
// interrupted by its context.
// Completed counts the input pairs whose outcomes were fully computed
// before the workers drained; the sweep's verdict on the remaining pairs
// is unknown. Unwrap yields the context's error, so errors.Is(err,
// context.Canceled) and context.DeadlineExceeded both work.
type CancelledError struct {
	Completed int
	Total     int
	Err       error
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("sweep cancelled after %d of %d pairs: %v", e.Completed, e.Total, e.Err)
}

// Unwrap exposes the underlying context error.
func (e *CancelledError) Unwrap() error { return e.Err }

// PanicError reports a panic recovered inside a sweep worker while
// computing one input pair — in the family's Build or ApplyBit, the
// predicate, or a certified algorithm. The panic is confined to that
// pair: the sweep reports it in the usual first-failure position,
// naming the (x, y) pair instead of crashing the whole process.
type PanicError struct {
	X, Y  comm.Bits
	Value interface{}
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic at (x=%s, y=%s): %v", e.X, e.Y, e.Value)
}
