package checkpoint

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadCheckpoint throws arbitrary bytes at the snapshot reader of a
// 4-pixel grid, seeded with a version 3 snapshot, cuts, a flipped byte
// and padding before a matching digest. Read must never panic or
// allocate based on unvalidated header fields; anything that is not a
// byte-exact valid snapshot must fail with an error, and anything it
// accepts must carry sane fields.
func FuzzReadCheckpoint(f *testing.F) {
	// Seed with a genuine snapshot plus systematic mutations of it, so
	// the fuzzer starts from deep coverage of the happy path.
	dir := f.TempDir()
	path, _, err := Write(dir, testSnapshot(4, 3), nil)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(magic)+4])
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0xff
	f.Add(mut)
	padded := append(valid[:len(valid)-32:len(valid)-32], 0, 0)
	sum := sha256.Sum256(padded)
	f.Add(append(padded, sum[:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.idgckpt")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sn, err := Read(p, 4)
		if err != nil {
			if sn != nil {
				t.Fatal("Read returned both a snapshot and an error")
			}
			return
		}
		if sn == nil || sn.Grid == nil {
			t.Fatal("Read succeeded without a grid")
		}
		if sn.GridSize != 4 || sn.Grid.N != 4 {
			t.Fatalf("accepted implausible grid size %d", sn.GridSize)
		}
		if sn.NextChunk < 0 || sn.ChunkItems < 1 {
			t.Fatalf("accepted implausible cursor %d / chunk size %d", sn.NextChunk, sn.ChunkItems)
		}
	})
}
