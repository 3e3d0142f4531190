package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/plan"
)

// testSnapshot builds a deterministic snapshot whose grid has a
// distinct value at every (correlation, pixel).
func testSnapshot(gridSize, cursor int) *Snapshot {
	g := grid.NewGrid(gridSize)
	for c := range g.Data {
		for i := range g.Data[c] {
			g.Data[c][i] = complex(float64(c*100000+i)*0.5, -float64(i)-float64(c))
		}
	}
	var sum [32]byte
	for i := range sum {
		sum[i] = byte(i * 7)
	}
	return &Snapshot{
		GridSize:   gridSize,
		NextChunk:  cursor,
		ChunkItems: 4,
		PlanSum:    sum,
		Report: faulttol.ReportState{
			ItemsProcessed:      25,
			ItemsSkipped:        2,
			DroppedVisibilities: 37,
		},
		Grid: g,
	}
}

// TestCheckpointRoundTrip: a snapshot restores bit for bit, whatever
// cells its grid holds — every cell, a few awkward bit patterns (-0
// alone in a row, the smallest subnormal, ±MaxFloat64, a NaN payload),
// or none — and its file is the header, the grid's stream and the
// digest.
func TestCheckpointRoundTrip(t *testing.T) {
	const n = 16
	band := testSnapshot(n, 7)
	band.Grid.Zero()
	band.Grid.Set(0, 5, 3, complex(math.Copysign(0, -1), 0)) // row 5 holds only -0
	band.Grid.Set(1, 7, 0, complex(math.SmallestNonzeroFloat64, -math.MaxFloat64))
	band.Grid.Set(3, 9, 15, complex(math.MaxFloat64, math.Float64frombits(0x7ff8000000000123)))
	empty := testSnapshot(n, 7)
	empty.Grid.Zero()
	for _, tc := range []struct {
		name string
		sn   *Snapshot
	}{{"full", testSnapshot(n, 7)}, {"band", band}, {"empty", empty}} {
		dir := t.TempDir()
		want := tc.sn
		path, size, err := Write(dir, want, nil)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(path) != FileName(7) {
			t.Fatalf("published as %s, want %s", filepath.Base(path), FileName(7))
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		_, stream, _ := grid.WriteStream(nil, want.Grid)
		if st.Size() != size || size != headerBytes+stream+sha256.Size {
			t.Fatalf("%s: Write reported %d bytes, file is %d, header, %d-byte stream and digest make %d",
				tc.name, size, st.Size(), stream, headerBytes+stream+sha256.Size)
		}

		got, err := Read(path, n)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.GridSize != want.GridSize || got.NextChunk != want.NextChunk || got.ChunkItems != want.ChunkItems {
			t.Fatalf("header mismatch: %+v", got)
		}
		if got.PlanSum != want.PlanSum {
			t.Fatal("plan fingerprint mismatch")
		}
		if got.Report != want.Report {
			t.Fatalf("report state %+v, want %+v", got.Report, want.Report)
		}
		for c := range want.Grid.Data {
			for i, w := range want.Grid.Data[c] {
				g := got.Grid.Data[c][i]
				if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
					math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
					t.Fatalf("%s: grid value [%d][%d] = %v, want %v bit for bit", tc.name, c, i, g, w)
				}
			}
		}
		// No temp residue next to the published snapshot.
		entries, _ := os.ReadDir(dir)
		if len(entries) != 1 {
			t.Fatalf("directory holds %d entries, want the snapshot alone", len(entries))
		}
	}
}

// writeTestFile publishes a snapshot and returns the raw bytes and
// path for corruption tests.
func writeTestFile(t *testing.T, dir string, cursor int) (string, []byte) {
	t.Helper()
	path, _, err := Write(dir, testSnapshot(16, cursor), nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, raw
}

func TestCheckpointTruncated(t *testing.T) {
	dir := t.TempDir()
	path, raw := writeTestFile(t, dir, 1)
	for _, keep := range []int{0, 5, len(magic) + 2, 60, len(raw) / 2, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(path, 16); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: got %v, want ErrCorrupt", keep, err)
		}
	}
}

func TestCheckpointFlippedByte(t *testing.T) {
	dir := t.TempDir()
	path, raw := writeTestFile(t, dir, 1)
	// Flip one bit deep in the grid payload (digest catches it) and one
	// in the trailing digest itself.
	for _, off := range []int{len(raw) / 2, len(raw) - 4} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x10
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(path, 16); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flipped byte at %d: got %v, want ErrCorrupt", off, err)
		}
	}
}

func TestCheckpointWrongVersion(t *testing.T) {
	dir := t.TempDir()
	path, raw := writeTestFile(t, dir, 1)
	bad := append([]byte(nil), raw...)
	bad[len(magic)] = 99 // version field follows the magic
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path, 16); !errors.Is(err, ErrVersion) {
		t.Fatalf("version 99: got %v, want ErrVersion", err)
	}
}

func TestCheckpointImplausibleHeader(t *testing.T) {
	dir := t.TempDir()
	path, raw := writeTestFile(t, dir, 1)
	// A hostile grid size must be rejected before any allocation is
	// attempted; the file is far too small for the claimed layout.
	bad := append([]byte(nil), raw...)
	bad[len(magic)+4] = 0xff
	bad[len(magic)+5] = 0xff
	bad[len(magic)+6] = 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path, 16); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("huge grid size: got %v, want ErrCorrupt", err)
	}
}

func TestLoadLatestFallsBackPastCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Write(dir, testSnapshot(16, 2), nil); err != nil {
		t.Fatal(err)
	}
	newest, raw := writeTestFile(t, dir, 4)
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	sn, path, notes, err := LoadLatest(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if sn == nil || sn.NextChunk != 2 {
		t.Fatalf("fell back to %+v, want the cursor-2 snapshot", sn)
	}
	if filepath.Base(path) != FileName(2) {
		t.Fatalf("loaded %s", path)
	}
	if len(notes) != 1 {
		t.Fatalf("notes = %v, want one fallback note", notes)
	}
}

func TestLoadLatestAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	for _, cursor := range []int{2, 4} {
		path, raw := writeTestFile(t, dir, cursor)
		if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sn, _, notes, err := LoadLatest(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if sn != nil {
		t.Fatalf("got snapshot %+v from an all-corrupt directory", sn)
	}
	if len(notes) != 2 {
		t.Fatalf("notes = %v, want two fallback notes", notes)
	}
}

func TestLoadLatestEmptyAndMissingDir(t *testing.T) {
	sn, _, notes, err := LoadLatest(t.TempDir(), 16)
	if err != nil || sn != nil || len(notes) != 0 {
		t.Fatalf("empty dir: %v %v %v", sn, notes, err)
	}
	sn, _, notes, err = LoadLatest(filepath.Join(t.TempDir(), "never-created"), 16)
	if err != nil || sn != nil || len(notes) != 0 {
		t.Fatalf("missing dir: %v %v %v", sn, notes, err)
	}
}

func TestLoadLatestPrefersNewestCursor(t *testing.T) {
	dir := t.TempDir()
	// Cursor 10 sorts after cursor 2 only with zero padding.
	for _, cursor := range []int{2, 10} {
		if _, _, err := Write(dir, testSnapshot(16, cursor), nil); err != nil {
			t.Fatal(err)
		}
	}
	sn, _, _, err := LoadLatest(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	if sn.NextChunk != 10 {
		t.Fatalf("loaded cursor %d, want 10", sn.NextChunk)
	}
}

// TestWriteCrashBeforeRenameLeavesNoSnapshot: a kill between sync and
// rename must not publish a snapshot (the previous checkpoint set
// stays authoritative) and must not leave junk a reader would pick up.
func TestWriteCrashBeforeRenameLeavesNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	var sawEvent Event
	var sawChunk int
	hook := func(ev Event, chunk int) {
		sawEvent, sawChunk = ev, chunk
		panic("simulated kill")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("hook panic did not propagate")
			}
		}()
		Write(dir, testSnapshot(16, 5), hook)
	}()
	if sawEvent != EventBeforeRename || sawChunk != 4 {
		t.Fatalf("hook saw (%v, %d), want (before-rename, 4)", sawEvent, sawChunk)
	}
	names, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("crash published %v", names)
	}
	// LoadLatest over the aftermath is a clean restart, not an error.
	sn, _, _, err := LoadLatest(dir, 16)
	if err != nil || sn != nil {
		t.Fatalf("post-crash LoadLatest: %v %v", sn, err)
	}
}

func testPlan() *plan.Plan {
	return &plan.Plan{
		Config: plan.Config{
			GridSize:    64,
			SubgridSize: 8,
			ImageSize:   0.1,
			Frequencies: []float64{1e8, 1.1e8},
		},
		Items: []plan.WorkItem{
			{Baseline: 0, TimeStart: 0, NrTimesteps: 4, Channel0: 0, NrChannels: 2, X0: 3, Y0: 5},
			{Baseline: 1, TimeStart: 4, NrTimesteps: 4, Channel0: 0, NrChannels: 2, X0: 9, Y0: 1, WPlane: 1, WOffset: 2.5},
		},
	}
}

func TestPlanFingerprint(t *testing.T) {
	p := testPlan()
	a := PlanFingerprint(p)
	if a != PlanFingerprint(testPlan()) {
		t.Fatal("fingerprint not deterministic")
	}
	q := testPlan()
	q.Items[1].X0++
	if a == PlanFingerprint(q) {
		t.Fatal("moved work item not reflected in fingerprint")
	}
	r := testPlan()
	r.Frequencies = []float64{1e8, 1.2e8}
	if a == PlanFingerprint(r) {
		t.Fatal("changed subband not reflected in fingerprint")
	}
	s := testPlan()
	s.Items = s.Items[:1]
	if a == PlanFingerprint(s) {
		t.Fatal("dropped work item not reflected in fingerprint")
	}
}

// TestWriteKeepsTwoSnapshots: each Write deletes every snapshot older
// than its predecessor, so a directory holds the newest snapshot and
// the one LoadLatest falls back to.
func TestWriteKeepsTwoSnapshots(t *testing.T) {
	dir := t.TempDir()
	for cursor := 1; cursor <= 5; cursor++ {
		if _, _, err := Write(dir, testSnapshot(16, cursor), nil); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != FileName(4) || entries[1].Name() != FileName(5) {
		t.Fatalf("directory holds %v, want %s and %s", entries, FileName(4), FileName(5))
	}
}

// writeOld writes sn in the layout of an older version under the name
// its writer gave it: version 1 has a shard count in the header and
// the grid as one full-height band record, version 2 the rows
// grid.NonzeroRowSpan finds as one band record, each as dense cells.
func writeOld(t *testing.T, dir string, ver int, sn *Snapshot) string {
	t.Helper()
	var b []byte
	u32 := func(v int) { b = binary.LittleEndian.AppendUint32(b, uint32(v)) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	b = append(b, magic...)
	u32(ver)
	u32(sn.GridSize) // header: grid size, [shard count,] cursor, chunk size
	if ver == 1 {
		u32(1)
	}
	u64(uint64(sn.NextChunk))
	u32(sn.ChunkItems)
	b = append(b, sn.PlanSum[:]...)
	for _, v := range []int{sn.Report.ItemsProcessed, 0, sn.Report.ItemsSkipped, int(sn.Report.DroppedVisibilities)} {
		u64(uint64(v))
	}
	lo, hi := 0, sn.GridSize // the one shard's rows
	if ver == 2 {
		lo, hi = grid.NonzeroRowSpan(sn.Grid)
	}
	u32(lo)
	u32(hi)
	for c := range sn.Grid.Data {
		for _, v := range sn.Grid.Data[c][lo*sn.GridSize : hi*sn.GridSize] {
			u64(math.Float64bits(real(v)))
			u64(math.Float64bits(imag(v)))
		}
	}
	sum := sha256.Sum256(b)
	path := filepath.Join(dir, FileName(sn.NextChunk))
	if err := os.WriteFile(path, append(b, sum[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestVersion1Rejected: a version 1 snapshot is ErrVersion, and over a
// directory holding only that file LoadLatest notes the fallback and
// returns no snapshot, so a resume starts clean.
func TestVersion1Rejected(t *testing.T) {
	testOldVersionRejected(t, 1)
}

// TestVersion2Rejected: so is a version 2 snapshot, whose grid is dense
// rows.
func TestVersion2Rejected(t *testing.T) {
	testOldVersionRejected(t, 2)
}

func testOldVersionRejected(t *testing.T, ver int) {
	dir := t.TempDir()
	sn := testSnapshot(16, 3)
	for y := 0; y < 16; y += 5 {
		for c := range sn.Grid.Data {
			clear(sn.Grid.Data[c][y*16 : (y+1)*16])
		}
	}
	path := writeOld(t, dir, ver, sn)
	if _, err := Read(path, 16); !errors.Is(err, ErrVersion) {
		t.Fatalf("version %d file: got %v, want ErrVersion", ver, err)
	}
	sn, _, notes, err := LoadLatest(dir, 16)
	if err != nil || sn != nil {
		t.Fatalf("LoadLatest over a version %d file: %+v, %v", ver, sn, err)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "falling back") {
		t.Fatalf("notes = %v, want one fallback note", notes)
	}
}

// TestReadRefusesOtherGridSize: a small file that declares a
// 16384-pixel grid is ErrMismatch to a reader resuming into 16 pixels,
// which allocates no more than its own grid for it, and LoadLatest
// reports it rather than falling back past it.
func TestReadRefusesOtherGridSize(t *testing.T) {
	dir := t.TempDir()
	path, raw := writeTestFile(t, dir, 1)
	binary.LittleEndian.PutUint32(raw[len(magic)+4:], maxGridSize)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Read(path, 16)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrMismatch) {
		t.Fatalf("a 16384-pixel snapshot read into 16 pixels: %v, want ErrMismatch", err)
	}
	if allocated, grid16 := after.TotalAlloc-before.TotalAlloc, uint64(grid.NrCorrelations*16*16*grid.CellBytes); allocated > grid16 {
		t.Errorf("refusing it allocated %d bytes, more than the %d of the expected grid", allocated, grid16)
	}
	if sn, _, _, err := LoadLatest(dir, 16); sn != nil || !errors.Is(err, ErrMismatch) {
		t.Fatalf("LoadLatest over it: %v, %v, want ErrMismatch", sn, err)
	}
}

// TestCheckpointPadded: bytes between the grid's stream and the digest
// make the file ErrCorrupt, even under a digest that covers them.
func TestCheckpointPadded(t *testing.T) {
	dir := t.TempDir()
	path, raw := writeTestFile(t, dir, 1)
	body := append(raw[:len(raw)-sha256.Size:len(raw)-sha256.Size], 0)
	sum := sha256.Sum256(body)
	if err := os.WriteFile(path, append(body, sum[:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path, 16); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "after the stream's end") {
		t.Fatalf("padded file: got %v, want ErrCorrupt naming the bytes after the stream", err)
	}
}
