package bitmap

import "testing"

// FuzzWAHUnmarshal: decoding arbitrary bytes as a WAH bitmap must never
// panic, and a bitmap that decodes must only ever yield set bits inside
// its own length, in increasing order — callers such as the vindex
// reader index the grid with them.
func FuzzWAHUnmarshal(f *testing.F) {
	for _, n := range []int64{0, 1, 31, 62, 1000} {
		b := New(n)
		for i := int64(0); i < n; i += 3 {
			b.Set(i)
		}
		raw, err := Compress(b).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WAH
		if err := w.UnmarshalBinary(data); err != nil {
			return
		}
		// Fill words can describe billions of bits; the first 1<<16
		// yielded are enough to catch an out-of-range index.
		it := w.Bits()
		prev := int64(-1)
		for k := 0; k < 1<<16; k++ {
			i, ok := it.Next()
			if !ok {
				break
			}
			if i < 0 || i >= w.Len() || i <= prev {
				t.Fatalf("bit %d yielded after %d from a WAH of length %d", i, prev, w.Len())
			}
			prev = i
		}
	})
}
