package memtable

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"vstore/internal/model"
)

// BenchmarkApplyWideRow inserts one row of width cells, columns in
// random order, into a fresh memtable, row after row: the cost of an
// insert as the row under it grows, up to the 30 000-cell view rows a
// hot view key collects. At width 1 the fresh memtable is most of it.
func BenchmarkApplyWideRow(b *testing.B) {
	for _, width := range []int{1, 6, 100, 5000, 30000} {
		b.Run("width="+strconv.Itoa(width), func(b *testing.B) {
			keys := make([][]byte, width)
			for i, j := range rand.New(rand.NewSource(1)).Perm(width) {
				keys[i] = model.EncodeKey("data-00004711", model.Qualify(fmt.Sprintf("base-%06d", j), "payload"))
			}
			c := model.Cell{Value: []byte("sec-00000001"), TS: 1}
			var m *Memtable
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%width == 0 {
					m = New(1)
				}
				m.Apply(keys[i%width], c)
			}
		})
	}
}
