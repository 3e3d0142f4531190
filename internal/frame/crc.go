package frame

import (
	"encoding/binary"
	"hash/crc64"

	"repro/internal/xmath"
)

// The frame checksum is CRC-64/ECMA as hash/crc64 computes it with the
// ECMA table (reflected, initial and final value all ones). On the
// avx2 and avx512 tiers a carry-less multiply folding routine computes
// the same values, after Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009; the
// table code is the scalar tier's path, the path off amd64 and the
// routine's test oracle.
//
// Folding keeps a running 128-bit remainder X per lane, in the
// reflected bit order of the stream (register bit i is the
// coefficient of x^(127-i)). X = H·x^64 + L moves d bits further down
// the stream as H·(x^(d+64) mod P) + L·(x^d mod P), two 64x64-bit
// carry-less products whose sum has at most 128 bits; the next d bits
// of data are xored onto it. A reflected product carries an extra
// factor x, so the stored constants are x^(d+63) and x^(d-1) mod P,
// bit-reversed. The routine ends with one 128-bit remainder X of the
// folded prefix (its first 64 bits xored with the incoming state), and
// the CRC state after it is X·x^64 mod P: the table CRC of X's 16
// bytes from a zero state.

// crcTable is the ECMA table of hash/crc64.
var crcTable = crc64.MakeTable(crc64.ECMA)

// clmulK holds bits.Reverse64(x^d mod P), P the ECMA polynomial, in
// the pairs foldPCLMUL loads (TestCLMULConstants derives them): fold
// by 512 bits (d = 575, 511) and by 128 bits (191, 127).
var clmulK = [4]uint64{
	0x6ae3efbb9dd441f3, 0x081f6054a7842df4,
	0xe05dd497ca393ae4, 0xdabe95afc7875f40,
}

// foldBlock is the step of foldPCLMUL: four 16-byte lanes.
const foldBlock = 64

// useCLMUL is whether the active tier folds by carry-less multiply:
// the avx2 and avx512 tiers on a host with PCLMULQDQ.
var useCLMUL = hasCLMUL && xmath.ActiveSIMD() >= xmath.SIMDAVX2

// crcUpdate returns crc64.Update(crc, crcTable, p).
func crcUpdate(crc uint64, p []byte) uint64 { return update(useCLMUL, crc, p) }

// update is crc64.Update(crc, crcTable, p), with the longest prefix of
// whole blocks folded by foldPCLMUL when clmul is set.
func update(clmul bool, crc uint64, p []byte) uint64 {
	if clmul && len(p) >= foldBlock {
		n := len(p) - len(p)%foldBlock
		lo, hi := foldPCLMUL(^crc, p[:n])
		var x [16]byte
		binary.LittleEndian.PutUint64(x[:], lo)
		binary.LittleEndian.PutUint64(x[8:], hi)
		crc, p = crc64.Update(^uint64(0), crcTable, x[:]), p[n:]
	}
	return crc64.Update(crc, crcTable, p)
}
