// Package checkpoint implements durable snapshots of a streamed
// gridding pass: the partially accumulated uv-grid, the chunk cursor
// of the streaming scheduler, and the fault-tolerance counters, in a
// versioned binary format protected by a SHA-256 content digest and
// written with temp-file + atomic-rename durability. A run killed at
// hour N resumes from its last snapshot instead of regridding hours
// 1..N — the robustness layer the ROADMAP's multi-node and
// gridding-as-a-service items assume.
//
// # Format
//
// A snapshot file is one band record, in order (all integers
// little-endian):
//
//	magic   "IDGCKPT\n" (8 bytes)
//	version uint32 (currently 2)
//	header  gridSize uint32, nextChunk uint64, chunkItems uint32
//	plan    SHA-256 of the canonical plan encoding (32 bytes)
//	report  itemsProcessed, reserved, itemsSkipped,
//	        droppedVisibilities (4 x uint64); the reserved slot is
//	        written as 0 and ignored on read (older writers stored a
//	        retried-item count there)
//	band    rowLo uint32, rowHi uint32 (grid.NonzeroRowSpan: the rows
//	        the pass has touched), then those rows of each correlation
//	        plane in turn as float64 (re, im) pairs (grid.WriteCells);
//	        every other row is zero
//	digest  SHA-256 over every preceding byte (32 bytes)
//
// The file size is a closed form of (gridSize, rowLo, rowHi), so a
// reader can reject a truncated or padded file before allocating the
// grid.
//
// # Atomicity
//
// Write streams into a temp file in the destination directory, syncs
// it, and renames it into place. On POSIX filesystems the rename is
// atomic: a reader (or a crash) either sees the complete previous
// checkpoint set or the complete new file, never a half-written one.
// A torn file can therefore only appear through external corruption —
// and the trailing digest catches exactly that, making LoadLatest's
// fall-back-to-previous scan safe. Write keeps the new snapshot and its
// predecessor and deletes every older one, so the fallback is one
// snapshot deep.
package checkpoint

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/faulttol"
	"repro/internal/grid"
	"repro/internal/plan"
)

const (
	magic   = "IDGCKPT\n"
	version = 2

	// filePrefix/fileSuffix frame checkpoint file names; the chunk
	// cursor is zero-padded so lexical order equals numeric order.
	filePrefix = "checkpoint-"
	fileSuffix = ".idgckpt"

	// maxGridSize bounds the grid dimension a reader will accept; a
	// corrupt or hostile header cannot make Read allocate more than
	// 4 planes x (16K)^2 x 16 bytes.
	maxGridSize = 1 << 14
)

// Typed failures, matched with errors.Is through any wrapping.
var (
	// ErrCorrupt marks a snapshot file that fails structural or digest
	// validation (torn write, truncation, bit rot).
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrVersion marks a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
	// ErrMismatch marks a structurally valid snapshot that does not
	// belong to the observation trying to resume from it (different
	// plan, grid size, or chunking).
	ErrMismatch = errors.New("checkpoint: snapshot does not match the observation")
)

// Event identifies a durability-critical point in the streaming
// scheduler's checkpoint protocol. Hooks observe these points; the
// crash-injection harness panics at them to simulate kills.
type Event int

const (
	// EventChunkCommitted fires after a chunk's subgrids are added to
	// the grid but before any checkpoint covers it (serial scheduler
	// only; concurrent workers commit chunks out of order).
	EventChunkCommitted Event = iota + 1
	// EventBeforeWrite fires at a checkpoint barrier before the
	// snapshot file is opened.
	EventBeforeWrite
	// EventBeforeRename fires after the snapshot temp file is written
	// and synced, before the atomic rename publishes it.
	EventBeforeRename
	// EventAfterWrite fires after the snapshot is durably in place.
	EventAfterWrite
)

// String names the event.
func (e Event) String() string {
	switch e {
	case EventChunkCommitted:
		return "chunk-committed"
	case EventBeforeWrite:
		return "before-write"
	case EventBeforeRename:
		return "before-rename"
	case EventAfterWrite:
		return "after-write"
	default:
		return fmt.Sprintf("event(%d)", int(e))
	}
}

// Hook observes checkpoint events. chunk is the index of the last
// committed chunk at the event (-1 if none). A test hook may panic to
// simulate a crash at that exact point; production runs leave it nil.
type Hook func(ev Event, chunk int)

// Snapshot is one durable point of a streamed gridding pass:
// everything needed to continue from chunk NextChunk as if the run
// had never stopped.
type Snapshot struct {
	// GridSize is the master grid dimension in pixels.
	GridSize int
	// NextChunk is the cursor: chunks [0, NextChunk) of the plan's
	// stream are fully accumulated in Grid.
	NextChunk int
	// ChunkItems is the streaming chunk size the cursor is relative
	// to; resuming with a different chunk size would misplace it.
	ChunkItems int
	// PlanSum is PlanFingerprint of the plan the pass is gridding.
	PlanSum [32]byte
	// Report carries the fault-tolerance counters accumulated so far.
	Report faulttol.ReportState
	// Grid is the partially accumulated uv-grid.
	Grid *grid.Grid
}

// fileSize returns the exact encoded size of a snapshot of an
// n-pixel grid holding rows [lo, hi).
func fileSize(n, lo, hi int) int64 {
	return int64(len(magic)) + 4 + // magic, version
		4 + 8 + 4 + // gridSize, nextChunk, chunkItems
		32 + // plan fingerprint
		4*8 + // report counters
		4 + 4 + // band rows
		grid.NrCorrelations*int64(hi-lo)*int64(n)*grid.CellBytes + // band cells
		32 // digest
}

// PlanFingerprint hashes the plan's canonical content — config,
// frequencies and every work item — so a snapshot can prove it
// belongs to the plan a resume is about to grid. Two plans fingerprint
// equal iff they describe the same work in the same order.
func PlanFingerprint(p *plan.Plan) [32]byte {
	h := sha256.New()
	var b [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	wi := func(v int) { wu(uint64(int64(v))) }
	wf := func(v float64) { wu(math.Float64bits(v)) }

	wi(p.GridSize)
	wi(p.SubgridSize)
	wf(p.ImageSize)
	wi(p.KernelSupport)
	wi(p.MaxTimestepsPerSubgrid)
	wi(p.ATermUpdateInterval)
	wf(p.WStepLambda)
	wi(p.ChannelBlockSize)
	wi(len(p.Frequencies))
	for _, f := range p.Frequencies {
		wf(f)
	}
	wi(len(p.Items))
	for i := range p.Items {
		it := &p.Items[i]
		wi(it.Baseline)
		wi(it.TimeStart)
		wi(it.NrTimesteps)
		wi(it.Channel0)
		wi(it.NrChannels)
		wi(it.ATermSlot)
		wi(it.X0)
		wi(it.Y0)
		wf(it.WOffset)
		wi(it.WPlane)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// FileName returns the snapshot file name for a chunk cursor. The
// cursor is zero-padded so lexically sorted directory listings are in
// cursor order.
func FileName(nextChunk int) string {
	return fmt.Sprintf("%s%012d%s", filePrefix, nextChunk, fileSuffix)
}

// hashWriter tees writes into a running SHA-256.
type hashWriter struct {
	w io.Writer
	h hash.Hash
}

func (hw *hashWriter) Write(p []byte) (int, error) {
	n, err := hw.w.Write(p)
	hw.h.Write(p[:n])
	return n, err
}

func (hw *hashWriter) u32(v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := hw.Write(b[:])
	return err
}

func (hw *hashWriter) u64(v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := hw.Write(b[:])
	return err
}

// Write durably stores sn into dir (created if missing) and returns
// the published file path and its size in bytes. The snapshot streams
// into a temp file which is synced and atomically renamed to
// FileName(sn.NextChunk); hook (may be nil) observes EventBeforeRename
// between the sync and the rename, the window where a kill leaves no
// new checkpoint but an ignorable temp file. Once the snapshot is
// published, every snapshot older than its predecessor is deleted.
func Write(dir string, sn *Snapshot, hook Hook) (path string, bytes int64, err error) {
	if sn.Grid == nil || sn.Grid.N != sn.GridSize {
		return "", 0, fmt.Errorf("checkpoint: snapshot grid does not match GridSize %d", sn.GridSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, fmt.Errorf("checkpoint: %w", err)
	}
	f, err := os.CreateTemp(dir, filePrefix+"*.tmp")
	if err != nil {
		return "", 0, fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	renamed := false
	defer func() {
		if !renamed {
			f.Close()
			os.Remove(tmp)
		}
	}()

	bw := bufio.NewWriterSize(f, 1<<16)
	hw := &hashWriter{w: bw, h: sha256.New()}
	if _, err := hw.Write([]byte(magic)); err != nil {
		return "", 0, err
	}
	if err := hw.u32(version); err != nil {
		return "", 0, err
	}
	if err := errors.Join(
		hw.u32(uint32(sn.GridSize)),
		hw.u64(uint64(sn.NextChunk)),
		hw.u32(uint32(sn.ChunkItems)),
	); err != nil {
		return "", 0, err
	}
	if _, err := hw.Write(sn.PlanSum[:]); err != nil {
		return "", 0, err
	}
	band := sn.Grid.Rows(grid.NonzeroRowSpan(sn.Grid))
	if err := errors.Join(
		hw.u64(uint64(sn.Report.ItemsProcessed)),
		hw.u64(0), // reserved
		hw.u64(uint64(sn.Report.ItemsSkipped)),
		hw.u64(uint64(sn.Report.DroppedVisibilities)),
		hw.u32(uint32(band.Lo)),
		hw.u32(uint32(band.Hi)),
	); err != nil {
		return "", 0, err
	}
	for c := range band.Data {
		if err := grid.WriteCells(hw, band.Data[c]); err != nil {
			return "", 0, err
		}
	}
	var digest [32]byte
	hw.h.Sum(digest[:0])
	if _, err := bw.Write(digest[:]); err != nil {
		return "", 0, err
	}
	if err := bw.Flush(); err != nil {
		return "", 0, err
	}
	if err := f.Sync(); err != nil {
		return "", 0, fmt.Errorf("checkpoint: sync: %w", err)
	}

	if hook != nil {
		hook(EventBeforeRename, sn.NextChunk-1)
	}

	if err := f.Close(); err != nil {
		return "", 0, err
	}
	path = filepath.Join(dir, FileName(sn.NextChunk))
	if err := os.Rename(tmp, path); err != nil {
		return "", 0, fmt.Errorf("checkpoint: publish: %w", err)
	}
	renamed = true
	// Best effort: make the rename itself durable. Some filesystems
	// (and all test tmpfs setups) don't need it; none are hurt by it.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	prune(dir, FileName(sn.NextChunk))
	return path, fileSize(sn.GridSize, band.Lo, band.Hi), nil
}

// prune deletes, best effort, every snapshot in dir older than the
// predecessor of the one just published as name: the new snapshot and
// the one LoadLatest falls back to stay.
func prune(dir, name string) {
	names, _ := List(dir)
	for _, old := range names[:max(sort.SearchStrings(names, name)-1, 0)] {
		os.Remove(filepath.Join(dir, old))
	}
}

// hashReader tees reads into a running SHA-256.
type hashReader struct {
	r io.Reader
	h hash.Hash
}

func (hr *hashReader) Read(p []byte) (int, error) {
	n, err := hr.r.Read(p)
	hr.h.Write(p[:n])
	return n, err
}

func (hr *hashReader) full(p []byte) error {
	_, err := io.ReadFull(hr, p)
	return err
}

func (hr *hashReader) u32() (uint32, error) {
	var b [4]byte
	if err := hr.full(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (hr *hashReader) u64() (uint64, error) {
	var b [8]byte
	if err := hr.full(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Read loads and fully validates one snapshot file: magic, version,
// header sanity, exact file size, band structure and the trailing
// SHA-256 digest. Any structural problem returns an error matching
// ErrCorrupt (or ErrVersion for a well-formed file of another
// version); Read never panics and never returns a partially valid
// snapshot.
func Read(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}

	br := bufio.NewReaderSize(f, 1<<16)
	hr := &hashReader{r: br, h: sha256.New()}
	var mg [len(magic)]byte
	if err := hr.full(mg[:]); err != nil {
		return nil, fmt.Errorf("%w: short magic: %v", ErrCorrupt, err)
	}
	if string(mg[:]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, mg)
	}
	ver, err := hr.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	if ver != version {
		return nil, fmt.Errorf("%w: version %d (this build reads %d)", ErrVersion, ver, version)
	}

	gridSize, err1 := hr.u32()
	nextChunk, err2 := hr.u64()
	chunkItems, err3 := hr.u32()
	if err := errors.Join(err1, err2, err3); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	switch {
	case gridSize < 2 || gridSize > maxGridSize:
		return nil, fmt.Errorf("%w: implausible grid size %d", ErrCorrupt, gridSize)
	case nextChunk > 1<<40:
		return nil, fmt.Errorf("%w: implausible chunk cursor %d", ErrCorrupt, nextChunk)
	case chunkItems < 1 || chunkItems > 1<<24:
		return nil, fmt.Errorf("%w: implausible chunk size %d", ErrCorrupt, chunkItems)
	}
	sn := &Snapshot{
		GridSize:   int(gridSize),
		NextChunk:  int(nextChunk),
		ChunkItems: int(chunkItems),
	}
	if err := hr.full(sn.PlanSum[:]); err != nil {
		return nil, fmt.Errorf("%w: short plan fingerprint: %v", ErrCorrupt, err)
	}
	proc, err1 := hr.u64()
	_, err2 = hr.u64() // reserved
	skip, err3 := hr.u64()
	drop, err4 := hr.u64()
	lo, err5 := hr.u32()
	hi, err6 := hr.u32()
	if err := errors.Join(err1, err2, err3, err4, err5, err6); err != nil {
		return nil, fmt.Errorf("%w: short report or band rows: %v", ErrCorrupt, err)
	}
	sn.Report = faulttol.ReportState{
		ItemsProcessed:      int(proc),
		ItemsSkipped:        int(skip),
		DroppedVisibilities: int64(drop),
	}
	if lo > hi || hi > gridSize {
		return nil, fmt.Errorf("%w: band rows [%d, %d) of a %d-row grid", ErrCorrupt, lo, hi, gridSize)
	}
	// The whole layout is now determined; reject truncated or padded
	// files before allocating ~16 N^2 bytes of grid.
	if want := fileSize(int(gridSize), int(lo), int(hi)); st.Size() != want {
		return nil, fmt.Errorf("%w: file is %d bytes, a %d-pixel snapshot of rows [%d, %d) is %d",
			ErrCorrupt, st.Size(), gridSize, lo, hi, want)
	}
	sn.Grid = grid.NewGrid(sn.GridSize)
	band := sn.Grid.Rows(int(lo), int(hi))
	for c := range band.Data {
		if err := grid.ReadCells(hr, band.Data[c]); err != nil {
			return nil, fmt.Errorf("%w: plane %d: %v", ErrCorrupt, c, err)
		}
	}

	var want, got [32]byte
	hr.h.Sum(want[:0])
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("%w: short digest: %v", ErrCorrupt, err)
	}
	if want != got {
		return nil, fmt.Errorf("%w: content digest mismatch", ErrCorrupt)
	}
	return sn, nil
}

// List returns the snapshot file names in dir in ascending cursor
// order (temp files and foreign names excluded). A missing directory
// is an empty list, not an error.
func List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasPrefix(name, filePrefix) && strings.HasSuffix(name, fileSuffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// LoadLatest returns the newest valid snapshot in dir, scanning
// backwards past invalid files: a torn, corrupt or version-mismatched
// newest checkpoint falls back to its predecessor. Each skipped file
// adds a note (for the run's FaultReport); a nil snapshot with a nil
// error means no valid checkpoint exists and the caller should start
// clean. Only I/O-level problems (unreadable directory) are errors.
func LoadLatest(dir string) (sn *Snapshot, path string, notes []string, err error) {
	names, err := List(dir)
	if err != nil {
		return nil, "", nil, fmt.Errorf("checkpoint: %w", err)
	}
	for i := len(names) - 1; i >= 0; i-- {
		p := filepath.Join(dir, names[i])
		s, rerr := Read(p)
		if rerr == nil {
			return s, p, notes, nil
		}
		notes = append(notes, fmt.Sprintf("checkpoint %s unusable, falling back: %v", names[i], rerr))
	}
	return nil, "", notes, nil
}
