package wire

import "plwg/internal/ids"

// Encodings of the identifier types every protocol package's messages
// carry, shared so the three packages cannot drift apart. Empty slices
// decode as nil.

// PID appends a process identifier.
func (b *Buffer) PID(p ids.ProcessID) { b.Int64(int64(p)) }

// PID reads a process identifier.
func (r *Reader) PID() ids.ProcessID { return ids.ProcessID(r.Int64()) }

// HWG appends a heavy-weight group identifier.
func (b *Buffer) HWG(g ids.HWGID) { b.Int64(int64(g)) }

// HWG reads a heavy-weight group identifier.
func (r *Reader) HWG() ids.HWGID { return ids.HWGID(r.Int64()) }

// ViewID appends a view identifier (at least 2 bytes).
func (b *Buffer) ViewID(v ids.ViewID) {
	b.PID(v.Coord)
	b.Uint64(v.Seq)
}

// ViewID reads a view identifier.
func (r *Reader) ViewID() ids.ViewID {
	return ids.ViewID{Coord: r.PID(), Seq: r.Uint64()}
}

// ViewIDs appends a counted list of view identifiers.
func (b *Buffer) ViewIDs(vs ids.ViewIDs) {
	b.Uint64(uint64(len(vs)))
	for _, v := range vs {
		b.ViewID(v)
	}
}

// ViewIDs reads a counted list of view identifiers.
func (r *Reader) ViewIDs() ids.ViewIDs {
	n := r.Count(2)
	if n == 0 {
		return nil
	}
	vs := make(ids.ViewIDs, n)
	for i := range vs {
		vs[i] = r.ViewID()
	}
	return vs
}

// Members appends a counted member list.
func (b *Buffer) Members(m ids.Members) {
	b.Uint64(uint64(len(m)))
	for _, p := range m {
		b.PID(p)
	}
}

// Members reads a counted member list.
func (r *Reader) Members() ids.Members {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	m := make(ids.Members, n)
	for i := range m {
		m[i] = r.PID()
	}
	return m
}

// View appends a view: identifier, then members (at least 3 bytes).
func (b *Buffer) View(v ids.View) {
	b.ViewID(v.ID)
	b.Members(v.Members)
}

// View reads a view.
func (r *Reader) View() ids.View {
	return ids.View{ID: r.ViewID(), Members: r.Members()}
}
