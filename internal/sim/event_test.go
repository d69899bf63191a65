package sim

import "testing"

func TestSlotsRecycleIndices(t *testing.T) {
	var s Slots[string]
	a, b := s.Put("a"), s.Put("b")
	if a == b || s.Len() != 2 {
		t.Fatalf("Put gave indices %d, %d with Len %d; want distinct, Len 2", a, b, s.Len())
	}
	if got := s.Get(b); got != "b" || s.Len() != 2 {
		t.Fatalf("Get(%d) = %q with Len %d, want \"b\" without releasing", b, got, s.Len())
	}
	if got := s.Take(a); got != "a" || s.Len() != 1 {
		t.Fatalf("Take(%d) = %q with Len %d, want \"a\", Len 1", a, got, s.Len())
	}
	if c := s.Put("c"); c != a {
		t.Fatalf("Put after Take used index %d, want the released %d", c, a)
	}
	if got := s.Take(a); got != "c" {
		t.Fatalf("recycled slot holds %q, want \"c\"", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Take(s.Put("d")) }); allocs != 0 {
		t.Fatalf("steady-state Put/Take allocated %.1f times, want 0", allocs)
	}
}

func TestZeroEventFireIsNoOp(t *testing.T) {
	Event{Arg: 7}.Fire()
	k := NewKernel()
	k.Schedule(0, Event{}) // fires as a no-op
	k.Step()
	var got uint64
	Event{Fn: func(a uint64) { got = a }, Arg: 7}.Fire()
	if got != 7 {
		t.Fatalf("handler saw %d, want 7", got)
	}
}
