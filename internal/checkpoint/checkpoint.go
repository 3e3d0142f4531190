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
// A snapshot file is, in order (all integers little-endian):
//
//	magic   "IDGCKPT\n" (8 bytes)
//	version uint32 (currently 3)
//	header  gridSize uint32, nextChunk uint64, chunkItems uint32
//	plan    SHA-256 of the canonical plan encoding (32 bytes)
//	report  itemsProcessed, reserved, itemsSkipped,
//	        droppedVisibilities (4 x uint64); the reserved slot is
//	        written as 0 and ignored on read (older writers stored a
//	        retried-item count there)
//	grid    the grid's stream (grid.WriteStream: its nonzero cells,
//	        each after the count of zero cells before it)
//	digest  SHA-256 over every preceding byte (32 bytes)
//
// A reader names the grid size it resumes into and is refused any
// other before the grid is allocated; the stream must end exactly
// where the digest begins.
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
	version = 3
	// headerBytes is the size of everything before the grid.
	headerBytes = 8 + 4 + 4 + 8 + 4 + 32 + 4*8

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

	b := make([]byte, 0, headerBytes)
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint32(b, version)
	b = binary.LittleEndian.AppendUint32(b, uint32(sn.GridSize))
	b = binary.LittleEndian.AppendUint64(b, uint64(sn.NextChunk))
	b = binary.LittleEndian.AppendUint32(b, uint32(sn.ChunkItems))
	b = append(b, sn.PlanSum[:]...)
	for _, v := range []uint64{uint64(sn.Report.ItemsProcessed), 0, uint64(sn.Report.ItemsSkipped), uint64(sn.Report.DroppedVisibilities)} {
		b = binary.LittleEndian.AppendUint64(b, v) // the second is reserved
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	digest := sha256.New()
	w := io.MultiWriter(bw, digest)
	if _, err := w.Write(b); err != nil {
		return "", 0, err
	}
	_, n, err := grid.WriteStream(w, sn.Grid)
	if err != nil {
		return "", 0, err
	}
	if _, err := bw.Write(digest.Sum(nil)); err != nil {
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
	return path, headerBytes + n + sha256.Size, nil
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

// Read loads and fully validates one snapshot file of a gridSize-pixel
// grid: magic, version, header sanity, the grid stream and the trailing
// SHA-256 digest. A snapshot of another grid size is ErrMismatch,
// refused before the grid is allocated. Any structural problem returns
// an error matching ErrCorrupt (or ErrVersion for a file of another
// version); Read never panics and never returns a partially valid
// snapshot.
func Read(path string, gridSize int) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}

	// Everything before the digest passes through the hash; the stream
	// decoder's end-of-input check finds a padded file.
	digest := sha256.New()
	body := io.TeeReader(io.LimitReader(f, st.Size()-sha256.Size), digest)
	var b [headerBytes]byte
	if _, err := io.ReadFull(body, b[:len(magic)+4]); err != nil {
		return nil, fmt.Errorf("%w: short magic or version: %v", ErrCorrupt, err)
	}
	if string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:len(magic)])
	}
	if ver := binary.LittleEndian.Uint32(b[len(magic):]); ver != version {
		return nil, fmt.Errorf("%w: version %d (this build reads %d)", ErrVersion, ver, version)
	}
	if _, err := io.ReadFull(body, b[len(magic)+4:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCorrupt, err)
	}
	h := b[len(magic)+4:]
	u64 := func(at int) uint64 { return binary.LittleEndian.Uint64(h[at:]) }
	size, nextChunk, chunkItems := binary.LittleEndian.Uint32(h), u64(4), binary.LittleEndian.Uint32(h[12:])
	switch {
	case size < 2 || size > maxGridSize:
		return nil, fmt.Errorf("%w: implausible grid size %d", ErrCorrupt, size)
	case int64(size) != int64(gridSize):
		return nil, fmt.Errorf("%w: snapshot grid is %d pixels, resuming into %d", ErrMismatch, size, gridSize)
	case nextChunk > 1<<40:
		return nil, fmt.Errorf("%w: implausible chunk cursor %d", ErrCorrupt, nextChunk)
	case chunkItems < 1 || chunkItems > 1<<24:
		return nil, fmt.Errorf("%w: implausible chunk size %d", ErrCorrupt, chunkItems)
	}
	sn := &Snapshot{
		GridSize:   gridSize,
		NextChunk:  int(nextChunk),
		ChunkItems: int(chunkItems),
		Report: faulttol.ReportState{
			ItemsProcessed:      int(u64(48)),
			ItemsSkipped:        int(u64(64)), // u64(56) is reserved
			DroppedVisibilities: int64(u64(72)),
		},
	}
	copy(sn.PlanSum[:], h[16:48])
	if sn.Grid, err = grid.ReadStream(bufio.NewReaderSize(body, 1<<16), gridSize); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	var want, got [sha256.Size]byte
	digest.Sum(want[:0])
	if _, err := io.ReadFull(f, got[:]); err != nil {
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

// LoadLatest returns the newest valid snapshot of a gridSize-pixel
// grid in dir, scanning backwards past invalid files: a torn, corrupt
// or version-mismatched newest checkpoint falls back to its
// predecessor. Each skipped file adds a note (for the run's
// FaultReport); a nil snapshot with a nil error means no valid
// checkpoint exists and the caller should start clean. Errors are an
// unreadable directory and a snapshot of another grid size (ErrMismatch:
// the directory belongs to another observation).
func LoadLatest(dir string, gridSize int) (sn *Snapshot, path string, notes []string, err error) {
	names, err := List(dir)
	if err != nil {
		return nil, "", nil, fmt.Errorf("checkpoint: %w", err)
	}
	for i := len(names) - 1; i >= 0; i-- {
		p := filepath.Join(dir, names[i])
		s, rerr := Read(p, gridSize)
		if rerr == nil {
			return s, p, notes, nil
		}
		if errors.Is(rerr, ErrMismatch) {
			return nil, p, notes, fmt.Errorf("%s: %w", p, rerr)
		}
		notes = append(notes, fmt.Sprintf("checkpoint %s unusable, falling back: %v", names[i], rerr))
	}
	return nil, "", notes, nil
}
