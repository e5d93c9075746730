package table

import (
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 || b.Count() != 0 {
		t.Fatalf("fresh bitmap len=%d count=%d", b.Len(), b.Count())
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Set/Get mismatch")
	}
	if b.Count() != 3 {
		t.Fatalf("count = %d, want 3", b.Count())
	}
}

func TestBitmapAppend(t *testing.T) {
	b := NewBitmap(0)
	pattern := []bool{true, false, true, true, false}
	for i := 0; i < 30; i++ {
		for _, v := range pattern {
			b.Append(v)
		}
	}
	if b.Len() != 150 {
		t.Fatalf("len = %d", b.Len())
	}
	for i := 0; i < b.Len(); i++ {
		if b.Get(i) != pattern[i%len(pattern)] {
			t.Fatalf("bit %d mismatch", i)
		}
	}
	if b.Count() != 90 {
		t.Fatalf("count = %d, want 90", b.Count())
	}
}

func TestBitmapClone(t *testing.T) {
	b := NewBitmap(10)
	b.Set(3)
	c := b.Clone()
	c.Set(5)
	if b.Get(5) {
		t.Fatal("clone aliases original")
	}
	if !c.Get(3) {
		t.Fatal("clone missing original bit")
	}
}

func TestBitmapCountProperty(t *testing.T) {
	check := func(seed uint64) bool {
		n := int(seed%500) + 1
		b := NewBitmap(n)
		set := map[int]bool{}
		s := seed
		for i := 0; i < n/2; i++ {
			s = s*6364136223846793005 + 1442695040888963407
			k := int(s % uint64(n))
			b.Set(k)
			set[k] = true
		}
		return b.Count() == len(set)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPopcount(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, 3: 2, 0xFF: 8, ^uint64(0): 64, 1 << 63: 1}
	for x, want := range cases {
		if got := popcount(x); got != want {
			t.Errorf("popcount(%#x) = %d, want %d", x, got, want)
		}
	}
}
