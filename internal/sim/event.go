package sim

// Event is a completion: a handler plus one word of per-request state.
// Components bind their handler method values once, at construction,
// and carry the request's state in Arg (a line address with flag bits
// in its free low bits, an issue cycle, a ring or slot index), so
// building an Event and handing it to Kernel.Schedule or to another
// layer allocates nothing. State that does not fit in one word lives in
// a component-owned Slots table and Arg holds the slot index.
//
// The zero Event is "no completion": Fire on it does nothing.
type Event struct {
	Fn  func(arg uint64)
	Arg uint64
}

// Fire runs the handler with its state word; a zero Event is a no-op.
func (e Event) Fire() {
	if e.Fn != nil {
		e.Fn(e.Arg)
	}
}

// Slots is a free-listed table of per-request state too wide for an
// Event's Arg word: Put stores a value and returns its index (the Arg),
// Take returns the value and recycles the index. Slot storage grows to
// the peak number of requests in flight and is reused after that, so
// the steady state allocates nothing. The zero value is ready to use.
type Slots[T any] struct {
	a    []T
	free []uint64
}

// Put stores v and returns its slot index.
func (s *Slots[T]) Put(v T) uint64 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.a[i] = v
		return i
	}
	s.a = append(s.a, v)
	return uint64(len(s.a) - 1)
}

// Get returns the value in slot i without releasing it.
func (s *Slots[T]) Get(i uint64) T { return s.a[i] }

// Take returns the value in slot i and releases the slot.
func (s *Slots[T]) Take(i uint64) T {
	v := s.a[i]
	var zero T
	s.a[i] = zero
	s.free = append(s.free, i)
	return v
}

// Len reports the slots currently in use.
func (s *Slots[T]) Len() int { return len(s.a) - len(s.free) }
