package freelist

import "testing"

// TestListIsBoundedLIFO: Get hands back the item put last, a new one
// when the list is empty, and Put keeps at most Slots items.
func TestListIsBoundedLIFO(t *testing.T) {
	var l List[[]byte]
	fresh := l.Get()
	if fresh == nil || *fresh != nil {
		t.Fatalf("Get on an empty list = %v, want a new zero item", fresh)
	}
	items := make([]*[]byte, Slots+2)
	for i := range items {
		items[i] = new([]byte)
		l.Put(items[i])
	}
	if n := l.Len(); n != Slots {
		t.Fatalf("list holds %d items after %d puts, want %d", n, len(items), Slots)
	}
	for i := Slots - 1; i >= 0; i-- {
		if got := l.Get(); got != items[i] {
			t.Fatalf("Get returned item %p, want item %d (%p)", got, i, items[i])
		}
	}
	if l.Len() != 0 {
		t.Fatalf("list holds %d items after draining it", l.Len())
	}
}
