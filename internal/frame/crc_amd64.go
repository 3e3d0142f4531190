package frame

import "repro/internal/xmath"

// foldPCLMUL folds 64 bytes a step in four XMM lanes. Implemented in
// crc_amd64.s.
func foldPCLMUL(s uint64, p []byte) (lo, hi uint64)

// hasCLMUL is whether this CPU runs foldPCLMUL.
var hasCLMUL = xmath.HasPCLMULQDQ()
