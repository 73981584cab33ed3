package graph

import "fmt"

// ArcDelta records one arc mutation: the arc (From, To) either became
// present with weight W (Add) or was removed while carrying weight W
// (!Add). Unlike EdgeDelta there is no canonicalization — direction is
// part of the element's identity, matching ArcHash. Deltas are the
// currency of the incremental observers built on top of the digraph: the
// directed lower-bound-family verifier folds them into its structural
// hashes in O(1) per delta instead of rehashing the whole digraph per
// input pair.
type ArcDelta struct {
	From, To int
	W        int64
	Add      bool
}

// StartJournal begins recording arc mutations (ToggleArc, AddArc variants)
// into an internal journal readable via Journal. Vertex mutations are not
// journaled; incremental observers require a fixed vertex set, which is
// exactly the Definition 1.1 condition 1 the verifier's families
// guarantee.
func (d *Digraph) StartJournal() {
	d.journalOn = true
	d.journal = d.journal[:0]
}

// Journal returns the mutations recorded since the last ClearJournal (or
// StartJournal). The slice is internal storage: read it, then ClearJournal.
func (d *Digraph) Journal() []ArcDelta { return d.journal }

// ClearJournal drops the recorded mutations while keeping recording on.
func (d *Digraph) ClearJournal() { d.journal = d.journal[:0] }

// record logs one arc mutation into the journal.
func (d *Digraph) record(u, v int, w int64, add bool) {
	if d.journalOn {
		d.journal = append(d.journal, ArcDelta{From: u, To: v, W: w, Add: add})
	}
}

// ToggleArc adds the arc (u, v) with weight w if it is absent and removes
// it (ignoring w) if it is present, reporting whether the arc is present
// after the call. This is the directed verifier's delta primitive: unlike
// AddArc it keeps the Freeze snapshot valid by splicing the affected
// out-window in place, O(outdeg), instead of discarding the snapshot.
//
//hardness:hotpath
func (d *Digraph) ToggleArc(u, v int, w int64) (added bool, err error) {
	if err := d.checkVertex(u); err != nil {
		return false, err
	}
	if err := d.checkVertex(v); err != nil {
		return false, err
	}
	if u == v {
		return false, fmt.Errorf("self loop at vertex %d", u)
	}
	if i := halfIndex(d.out[u], v); i >= 0 {
		oldW := d.out[u][i].Weight
		d.out[u] = removeHalfAt(d.out[u], i)
		d.in[v] = removeHalfAt(d.in[v], halfIndex(d.in[v], u))
		if c := d.csr.Load(); c != nil {
			c.spliceRemove(u, v)
		}
		d.record(u, v, oldW, false)
		return false, nil
	}
	d.out[u] = append(d.out[u], Half{To: v, Weight: w})
	d.in[v] = append(d.in[v], Half{To: u, Weight: w})
	if c := d.csr.Load(); c != nil && !c.spliceInsert(u, v, w) {
		// The out-window ran out of slack: rebuild the snapshot with
		// doubled slack, amortized O(1) per toggle.
		d.csr.Store(newCSR(d.out, 2*c.slack))
	}
	d.record(u, v, w, true)
	return true, nil
}

// removeHalfAt deletes entry i of an adjacency list, preserving order.
func removeHalfAt(nbrs []Half, i int) []Half {
	copy(nbrs[i:], nbrs[i+1:])
	return nbrs[:len(nbrs)-1]
}
