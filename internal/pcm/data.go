// Package pcm models the Multi-Level Cell Phase Change Memory device: cell
// packing, differential-write cell-change detection, the non-deterministic
// program-and-verify iteration model of the paper (Table 1), the sparse
// line-content store, and line-to-bank addressing.
//
// The model is passive: it computes what a write *is* (which cells change,
// how many iterations each needs, per-chip demand under a given cell
// mapping). The memory controller and power budgeter in internal/mem and
// internal/core decide *when* it happens.
package pcm

import (
	"encoding/binary"
	"math/bits"
)

// CellState is the 2-bit MLC state of a cell: 0b00, 0b01, 0b10 or 0b11.
// '00' is fully RESET (amorphous) and '11' is fully SET (crystalline);
// '01' and '10' are the hard intermediate states.
type CellState uint8

const (
	State00 CellState = 0
	State01 CellState = 1
	State10 CellState = 2
	State11 CellState = 3
)

// Cell returns the i-th cell of a line for the given cell width
// (bitsPerCell 1 or 2). Cells are packed little-endian within each byte:
// MLC cell 0 occupies bits 0..1 of byte 0.
func Cell(line []byte, i, bitsPerCell int) CellState {
	if bitsPerCell == 1 {
		byteIdx, bit := i/8, uint(i%8)
		return CellState((line[byteIdx] >> bit) & 1)
	}
	byteIdx, shift := i/4, uint(i%4)*2
	return CellState((line[byteIdx] >> shift) & 3)
}

// SetCell stores state into the i-th cell of line.
func SetCell(line []byte, i, bitsPerCell int, state CellState) {
	if bitsPerCell == 1 {
		byteIdx, bit := i/8, uint(i%8)
		line[byteIdx] = line[byteIdx]&^(1<<bit) | (byte(state&1) << bit)
		return
	}
	byteIdx, shift := i/4, uint(i%4)*2
	line[byteIdx] = line[byteIdx]&^(3<<shift) | (byte(state&3) << shift)
}

// NumCells returns how many cells a line of lineBytes occupies at the given
// cell width.
func NumCells(lineBytes, bitsPerCell int) int {
	return lineBytes * 8 / bitsPerCell
}

// DiffCells appends to dst the indices of cells whose stored value differs
// between old and new, in ascending order, and returns the extended slice.
// old and new must be the same length; old may be nil, meaning an all-zero
// line (the paper's Fig. 3 convention for untouched memory).
//
// The lines are compared a 64-bit word at a time: only the cells of
// nonzero XOR words are visited, one bit scan per changed cell.
func DiffCells(dst []int, old, new []byte, bitsPerCell int) []int {
	shift := uint(bitsPerCell - 1) // bit offset -> cell index
	for off := 0; off < len(new); off += 8 {
		m := changedMask(loadWord(old, off)^loadWord(new, off), bitsPerCell)
		for m != 0 {
			dst = append(dst, (off*8+bits.TrailingZeros64(m))>>shift)
			m &= m - 1
		}
	}
	return dst
}

// CountChangedCells reports how many cells differ between old and new; it is
// DiffCells without materializing the index list (used by Figure 2's
// cell-change census, where only the count matters).
func CountChangedCells(old, new []byte, bitsPerCell int) int {
	count := 0
	for off := 0; off < len(new); off += 8 {
		count += bits.OnesCount64(changedMask(loadWord(old, off)^loadWord(new, off), bitsPerCell))
	}
	return count
}

// changedMask maps a word of XORed line bits to one set bit, the cell's
// lowest, per cell that differs.
func changedMask(x uint64, bitsPerCell int) uint64 {
	if bitsPerCell == 1 {
		return x
	}
	return (x | x>>1) & 0x5555555555555555
}

// loadWord reads the little-endian word at byte offset off of line, zero
// past its end; a nil line reads as zeros.
func loadWord(line []byte, off int) uint64 {
	if line == nil {
		return 0
	}
	if off+8 <= len(line) {
		return binary.LittleEndian.Uint64(line[off:])
	}
	var w uint64
	for i := len(line) - 1; i >= off; i-- {
		w = w<<8 | uint64(line[i])
	}
	return w
}
