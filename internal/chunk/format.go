package chunk

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/la"
)

// Chunk formats, which are also the chunk kinds on the /exec wire (how a
// worker decodes the raw chunk bytes it holds):
//
//   - dense: rows·cols little-endian float64 cells, row-major.
//   - csr: three int64 header words (rows, cols, nnz), then rows+1 int64
//     row pointers, nnz int32 column indices, nnz float64 values.
const (
	chunkKindDense = "dense"
	chunkKindCSR   = "csr"
)

// kindOf reports the chunk format a decoded chunk is stored in.
func kindOf(c la.Mat) string {
	if _, ok := c.(*la.CSR); ok {
		return chunkKindCSR
	}
	return chunkKindDense
}

// sparseChunkBytes is the on-disk size of one CSR chunk: 3 header words +
// rows+1 row pointers, then 4+8 bytes per non-zero.
func sparseChunkBytes(rows int, nnz int64) int64 {
	return 8*int64(3+rows+1) + 12*nnz
}

// EncodedBytes reports the on-disk size of one decoded chunk — the I/O a
// streaming pass pays to load it. Dense chunks store rows×cols float64s;
// CSR chunks follow sparseChunkBytes.
func EncodedBytes(c la.Mat) int64 {
	if t, ok := c.(*la.CSR); ok {
		return sparseChunkBytes(t.Rows(), int64(t.NNZ()))
	}
	return int64(c.Rows()) * int64(c.Cols()) * 8
}

// encodeChunk serializes c in its format.
func encodeChunk(c la.Mat) []byte {
	if t, ok := c.(*la.CSR); ok {
		return encodeSparseChunk(t)
	}
	return encodeDenseChunk(c.Dense())
}

// encodeDenseChunk serializes d as raw little-endian float64 rows.
func encodeDenseChunk(d *la.Dense) []byte {
	data := d.Data()
	raw := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
	}
	return raw
}

// encodeSparseChunk serializes c in the CSR chunk layout, sized exactly
// sparseChunkBytes.
func encodeSparseChunk(c *la.CSR) []byte {
	nnz := c.NNZ()
	raw := make([]byte, 0, sparseChunkBytes(c.Rows(), int64(nnz)))
	raw = binary.LittleEndian.AppendUint64(raw, uint64(c.Rows()))
	raw = binary.LittleEndian.AppendUint64(raw, uint64(c.Cols()))
	raw = binary.LittleEndian.AppendUint64(raw, uint64(nnz))
	off := 0
	raw = binary.LittleEndian.AppendUint64(raw, 0)
	for i := 0; i < c.Rows(); i++ {
		idx, _ := c.RowNNZ(i)
		off += len(idx)
		raw = binary.LittleEndian.AppendUint64(raw, uint64(off))
	}
	for i := 0; i < c.Rows(); i++ {
		idx, _ := c.RowNNZ(i)
		for _, j := range idx {
			raw = binary.LittleEndian.AppendUint32(raw, uint32(j))
		}
	}
	for i := 0; i < c.Rows(); i++ {
		_, vals := c.RowNNZ(i)
		for _, v := range vals {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
	}
	return raw
}

// zeroChunk is the all-zero rows×cols chunk of the given kind, allocated
// exactly as decodeChunk allocates a stored zero chunk, so a zone-map
// skipped read is bit-identical to reading.
func zeroChunk(kind string, rows, cols int) la.Mat {
	if kind == chunkKindCSR {
		return la.NewCSR(rows, cols, make([]int, rows+1), make([]int32, 0), make([]float64, 0))
	}
	return la.NewDense(rows, cols)
}

// decodeChunk decodes a stored chunk of the given kind, validating its
// size against the expected rows×cols shape and, for CSR, the structural
// invariants: a truncated, foreign or corrupt blob surfaces as an error,
// never as garbage values or a panic. Every size is checked against the
// blob's length before any allocation, so a hostile header cannot request
// an absurd one.
func decodeChunk(kind, key string, raw []byte, rows, cols int) (la.Mat, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("chunk: %s: negative shape %dx%d", key, rows, cols)
	}
	switch kind {
	case chunkKindDense:
		if (cols > 0 && rows > len(raw)/8/cols) || len(raw) != rows*cols*8 {
			return nil, fmt.Errorf("chunk: %s has %d bytes, want %dx%d float64s", key, len(raw), rows, cols)
		}
		data := make([]float64, rows*cols)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
		return la.NewDenseData(rows, cols, data), nil
	case chunkKindCSR:
		return decodeCSRChunk(key, raw, rows, cols)
	}
	return nil, fmt.Errorf("chunk: %s: unknown chunk kind %q", key, kind)
}

// decodeCSRChunk is decodeChunk for the CSR layout, for a non-negative
// rows×cols shape.
func decodeCSRChunk(key string, raw []byte, rows, cols int) (c la.Mat, err error) {
	header := 8 * 3
	if len(raw) < header || rows > (len(raw)-header)/8-1 {
		return nil, fmt.Errorf("chunk: %s has %d bytes, too short for a %d-row CSR chunk", key, len(raw), rows)
	}
	gotRows := binary.LittleEndian.Uint64(raw[0:])
	gotCols := binary.LittleEndian.Uint64(raw[8:])
	nnz := binary.LittleEndian.Uint64(raw[16:])
	if gotRows != uint64(rows) || gotCols != uint64(cols) {
		return nil, fmt.Errorf("chunk: %s is %dx%d (nnz %d), want %dx%d", key, gotRows, gotCols, nnz, rows, cols)
	}
	// Bound nnz by the bytes present and by the cell count before it
	// enters any size arithmetic.
	header += 8 * (rows + 1)
	if nnz > uint64(len(raw)-header)/12 || (nnz > 0 && (cols == 0 || (nnz-1)/uint64(cols) >= uint64(rows))) {
		return nil, fmt.Errorf("chunk: %s claims %d non-zeros in %d bytes for %dx%d", key, nnz, len(raw), rows, cols)
	}
	if want := header + 12*int(nnz); len(raw) != want {
		return nil, fmt.Errorf("chunk: %s has %d bytes, want %d", key, len(raw), want)
	}
	indptr := make([]int, rows+1)
	p := 8 * 3
	for i := range indptr {
		indptr[i] = int(int64(binary.LittleEndian.Uint64(raw[p:])))
		p += 8
	}
	indices := make([]int32, nnz)
	for i := range indices {
		indices[i] = int32(binary.LittleEndian.Uint32(raw[p:]))
		p += 4
	}
	vals := make([]float64, nnz)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[p:]))
		p += 8
	}
	// la.NewCSR enforces the structural invariants by panicking; convert a
	// corrupt chunk into an error instead.
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, fmt.Errorf("chunk: corrupt sparse chunk %s: %v", key, r)
		}
	}()
	return la.NewCSR(rows, cols, indptr, indices, vals), nil
}
