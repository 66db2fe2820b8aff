package data

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzPatternWindowConsistency: any two ways of materializing the same
// window of a Pattern agree byte for byte.
func FuzzPatternWindowConsistency(f *testing.F) {
	f.Add(uint64(1), int64(0), int64(100))
	f.Add(uint64(999), int64(7), int64(4096))
	f.Add(uint64(0), int64(63), int64(1))
	f.Fuzz(func(t *testing.T, seed uint64, off, n int64) {
		const size = 1 << 16
		if off < 0 || n < 0 || n > size || off > size-n {
			t.Skip()
		}
		p := Pattern{Seed: seed, Size: size}
		whole := make([]byte, n)
		p.ReadAt(whole, off)
		via := NewSlice(p).Sub(off, n).Bytes()
		if !bytes.Equal(whole, via) {
			t.Fatalf("direct and Slice reads differ for seed=%d off=%d n=%d", seed, off, n)
		}
	})
}

// FuzzConcatSplit: splitting content at an arbitrary point and
// concatenating the halves is identity.
func FuzzConcatSplit(f *testing.F) {
	f.Add([]byte("hello world"), 3)
	f.Add([]byte{}, 0)
	f.Add([]byte{1}, 1)
	f.Fuzz(func(t *testing.T, b []byte, cut int) {
		if cut < 0 || cut > len(b) {
			t.Skip()
		}
		c := Concat{Bytes(append([]byte(nil), b[:cut]...)), Bytes(append([]byte(nil), b[cut:]...))}
		if c.Len() != int64(len(b)) {
			t.Fatalf("Len = %d, want %d", c.Len(), len(b))
		}
		got := NewSlice(c).Bytes()
		if !bytes.Equal(got, b) {
			t.Fatalf("split/concat not identity")
		}
	})
}

// joinContent builds one Content of the given kind plus an identity the
// Join oracle compares: instances of Bytes and Concat are only the same as
// themselves, Pattern and Zero are the same as any equal value, and a
// window never is (mergeable false).
func joinContent(kind uint8, seed uint64, size int64, inst int) (c Content, id string, mergeable bool) {
	switch kind % 5 {
	case 0:
		b := make(Bytes, size)
		Pattern{Seed: seed, Size: size}.ReadAt(b, 0)
		return b, fmt.Sprintf("bytes#%d", inst), true
	case 1:
		return Pattern{Seed: seed, Size: size}, fmt.Sprintf("pattern:%d:%d", seed, size), true
	case 2:
		return Zero(size), fmt.Sprintf("zero:%d", size), true
	case 3:
		half := size / 2
		return Concat{Pattern{Seed: seed, Size: half}, Zero(size - half)}, fmt.Sprintf("concat#%d", inst), true
	default:
		return NewSlice(Pattern{Seed: seed, Size: size + 3}).Sub(3, size).Content(), "", false
	}
}

// FuzzJoin: Join over every Content kind never panics, merges only
// contiguous windows of the same Content, and a merge reads as the two
// inputs back to back. Gather agrees: one run exactly when Join merges.
func FuzzJoin(f *testing.F) {
	f.Add(uint8(0), uint8(0), true, uint64(1), uint16(64), uint16(0), uint16(10), uint16(10), uint16(20))
	f.Add(uint8(1), uint8(1), false, uint64(2), uint16(64), uint16(4), uint16(8), uint16(12), uint16(8))
	f.Add(uint8(2), uint8(2), false, uint64(3), uint16(64), uint16(0), uint16(32), uint16(32), uint16(32))
	f.Add(uint8(3), uint8(3), true, uint64(4), uint16(100), uint16(10), uint16(40), uint16(50), uint16(50))
	f.Add(uint8(4), uint8(4), true, uint64(5), uint16(64), uint16(0), uint16(8), uint16(8), uint16(8))
	f.Add(uint8(0), uint8(0), false, uint64(6), uint16(64), uint16(0), uint16(10), uint16(10), uint16(20))
	f.Add(uint8(1), uint8(2), false, uint64(7), uint16(64), uint16(0), uint16(10), uint16(10), uint16(20))
	f.Fuzz(func(t *testing.T, kindA, kindB uint8, shared bool, seed uint64, size, offA, nA, offB, nB uint16) {
		sz := int64(size%512) + 1
		ca, idA, okA := joinContent(kindA, seed, sz, 1)
		cb, idB, okB := ca, idA, okA
		if !shared {
			cb, idB, okB = joinContent(kindB, seed, sz, 2)
		}
		window := func(c Content, off, n uint16) Slice {
			o := int64(off) % (c.Len() + 1)
			return NewSlice(c).Sub(o, int64(n)%(c.Len()-o+1))
		}
		a, b := window(ca, offA, nA), window(cb, offB, nB)

		got, ok := a.Join(b)
		want := okA && okB && idA == idB && a.Off+a.N == b.Off
		if ok != want {
			t.Fatalf("Join(%s [%d,+%d), %s [%d,+%d)) merged=%v, want %v", idA, a.Off, a.N, idB, b.Off, b.N, ok, want)
		}
		both := NewSlice(Concat{a.Content(), b.Content()})
		if !ok {
			if got.Off != a.Off || got.N != a.N || !Equal(got, a) {
				t.Fatalf("a refused Join changed its receiver: [%d,+%d) -> [%d,+%d)", a.Off, a.N, got.Off, got.N)
			}
		} else if got.Off != a.Off || got.N != a.N+b.N || !Equal(got, both) {
			t.Fatalf("merged [%d,+%d) does not read as the inputs back to back", got.Off, got.N)
		}

		var g Gather
		g.Add(a)
		g.Add(b)
		s := g.Slice()
		if s.Len() != a.N+b.N || !Equal(s, both) {
			t.Fatalf("Gather reads differently from its inputs back to back")
		}
		if spilled, want := len(g.parts) > 0, a.N > 0 && b.N > 0 && !ok; spilled != want {
			t.Fatalf("Gather spilled=%v, want %v (Join merged=%v)", spilled, want, ok)
		}
	})
}
