package chunk

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/la"
)

// FuzzDecodeChunk drives the one chunk decoder with arbitrary bytes and
// shapes, for both formats: every input either fails or decodes to a
// rows×cols chunk of the requested format that re-encodes to exactly the
// input bytes. It never panics and never allocates beyond the blob.
func FuzzDecodeChunk(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	d := randDense(rng, 3, 4)
	c := randCSR(rng, 5, 4, 0.4)
	f.Add(false, 3, 4, encodeDenseChunk(d))
	f.Add(true, 5, 4, encodeSparseChunk(c))
	f.Add(true, 2, 3, encodeSparseChunk(la.NewCSR(2, 3, make([]int, 3), nil, nil)))
	f.Add(true, 1, 4, hugeNNZBlob())
	f.Add(false, 1<<61+1, 1, make([]byte, 8)) // rows·cols·8 wraps to 8
	f.Add(false, 0, 0, []byte{})
	f.Add(true, 0, 0, []byte{})
	f.Fuzz(func(t *testing.T, sparse bool, rows, cols int, raw []byte) {
		kind := chunkKindDense
		if sparse {
			kind = chunkKindCSR
		}
		got, err := decodeChunk(kind, "fuzz", raw, rows, cols)
		if err != nil {
			return
		}
		if got.Rows() != rows || got.Cols() != cols || kindOf(got) != kind {
			t.Fatalf("decoded a %dx%d %s chunk, want %dx%d %s", got.Rows(), got.Cols(), kindOf(got), rows, cols, kind)
		}
		if !bytes.Equal(encodeChunk(got), raw) {
			t.Fatalf("%s chunk %dx%d does not re-encode to its %d input bytes", kind, rows, cols, len(raw))
		}
	})
}

// FuzzDecodePartial drives every registered op's partial decoder with
// arbitrary bytes: each input either fails or decodes to a partial of the
// op's shape for cols-wide chunks (cols = d, the centroid dimension, for
// kmeans-assign), so a decoded partial can always be reduced.
func FuzzDecodePartial(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	ch := randDense(rng, 6, 3)
	cent := randDense(rng, 3, 2)
	for _, op := range []Op{OpCrossProd(), OpColSums(), OpSum(), OpKMeansAssign(cent)} {
		st, err := prepareOp(op)
		if err != nil {
			f.Fatal(err)
		}
		v, err := st.apply(ch)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := st.encodePartial(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(op.Name, uint8(2), uint8(1), raw)
	}
	f.Add("crossprod", uint8(3), uint8(0), appendDenseBlob(nil, la.NewDense(1, 1)))
	f.Add("kmeans-assign", uint8(2), uint8(1), append(appendDenseBlob(nil, la.NewDense(3, 2)), make([]byte, 16)...))
	f.Fuzz(func(t *testing.T, name string, d, k uint8, raw []byte) {
		cols := int(d%16) + 1
		centroids := la.NewDense(cols, int(k%16)+1)
		op := Op{Name: name}
		if name == "kmeans-assign" {
			op = OpKMeansAssign(centroids)
		}
		st, err := prepareOp(op)
		if err != nil {
			return
		}
		v, err := st.decodePartial(raw, cols)
		if err != nil {
			return
		}
		var rows, wantRows, dcols, wantCols int
		switch p := v.(type) {
		case float64:
			return
		case *la.Dense:
			rows, dcols, wantRows, wantCols = p.Rows(), p.Cols(), cols, cols
			if name == "colsums" {
				wantRows = 1
			}
		case kmPart:
			if len(p.counts) != centroids.Cols() {
				t.Fatalf("kmeans-assign partial with %d counts, want %d", len(p.counts), centroids.Cols())
			}
			rows, dcols, wantRows, wantCols = p.sums.Rows(), p.sums.Cols(), cols, centroids.Cols()
		default:
			t.Fatalf("%s decoded a %T partial", name, v)
		}
		if rows != wantRows || dcols != wantCols {
			t.Fatalf("%s partial is %dx%d, want %dx%d", name, rows, dcols, wantRows, wantCols)
		}
	})
}
