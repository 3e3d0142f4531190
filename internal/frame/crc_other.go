//go:build !amd64

package frame

// hasCLMUL: off amd64 the table computes every CRC.
const hasCLMUL = false

func foldPCLMUL(s uint64, p []byte) (lo, hi uint64) {
	panic("frame: no carry-less multiply folding off amd64")
}
