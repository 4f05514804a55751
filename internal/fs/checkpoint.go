package fs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"ssmobile/internal/dram"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
	"ssmobile/internal/storman"
)

// The flash checkpoint is what a power failure leaves of the metadata.
// Flash is written slowly, erased before it is rewritten and wears out, so
// a checkpoint writes what changed, not what exists: the reserved object
// holds a whole IMAGE of the metadata and, after it, a LOG of sealed
// frames, each carrying the journal records of the mutations between two
// checkpoints — the very records the recovery box keeps in DRAM, replayed
// by the same applyRecord. When the log has filled as many blocks as the
// image takes, the next checkpoint folds it into a new image.
//
// Every image opens a new generation, and a generation has block indexes
// of the reserved object to itself:
//
//	index = generation<<ckptGenShift | part | i
//	part 0           block i of the generation's image
//	part ckptLogPart block i of the generation's log
//
// so writing an image never touches a block of the one it replaces.
//
//	image   [ 0, 4)  check word: ckptImageMagic ^ CRC32 of all that follows
//	        [ 4,12)  generation
//	        [12,20)  body length
//	        [20, …)  body: the snapshot encoding (appendState)
//	frame   [ 0, 4)  check word: ckptFrameMagic ^ CRC32 of the rest of the frame
//	        [ 4,12)  generation
//	        [12,16)  sequence number within the generation's log, from 0
//	        [16,20)  payload length
//	        [20, …)  payload: journal records (appendRecord)
//
// Frames are laid end to end in the log as a byte stream; one may straddle
// two blocks.
//
// The crash argument. The storage engine programs a page whole or not at
// all, so after a power cut each block of the object is present as last
// flushed or absent. An image's blocks are flushed in index order and its
// check word covers all of them: it is valid once its LAST block is
// programmed and not before, and until then the previous generation's
// image and log are untouched — their trim follows the commit and is
// itself only bookkeeping. A frame is appended by rewriting the log's
// partial tail block with the frame's bytes added (the sealed frames
// before them are rewritten unchanged), then programming any block it
// spills into: cut before the first program and the frame is absent, cut
// between the two and its check word fails. Replay stops at the first
// frame that does not open — bad check word, another generation, a
// sequence number out of turn, a length past the log's end — because a
// frame describes a change to the state the frames before it produced.
// So what mounts is always the image plus a whole number of frames: the
// metadata as of some checkpoint, never older than the last one that
// returned.
const (
	ckptImageMagic  uint32 = 0x494d5353 // "SSMI"
	ckptFrameMagic  uint32 = 0x4c4d5353 // "SSML"
	ckptHeaderBytes        = 20         // both headers
	ckptGenShift           = 24
	ckptLogPart     int64  = 1 << 23
)

// ErrCorruptCheckpoint reports a flash checkpoint that is all there and
// still fails validation. (An image a power cut left short is not
// corrupt, only uncommitted: recovery passes over it.)
var ErrCorruptCheckpoint = errors.New("fs: flash checkpoint corrupt")

// Checkpoint kinds, as telemetry names them.
const (
	ckptImage = iota
	ckptFrame
	ckptEmpty
	ckptKinds
)

var ckptKindNames = [ckptKinds]string{"image", "frame", "empty"}

// ckptState is where the flash checkpoint stands.
type ckptState struct {
	gen       uint64 // newest generation on flash, committed or not; the next image opens gen+1
	imageNext bool   // the next checkpoint writes an image, whatever is pending
	logCap    int    // bytes its log may grow to: as many blocks as the committed image takes
	logLen    int    // bytes of sealed frames in its log
	seq       uint32 // how many frames those are
	tail      []byte // the log's partial last block, as flash holds it
	image     []byte // reusable image buffer, never shorter than a header
}

func ckptKey(gen uint64, idx int64) storman.Key {
	return storman.Key{Object: metaObject, Block: int64(gen)<<ckptGenShift | idx}
}

// seal folds the check word over everything after it.
func seal(magic uint32, p []byte) {
	binary.LittleEndian.PutUint32(p, magic^crc32.ChecksumIEEE(p[4:]))
}

func sealed(magic uint32, p []byte) bool {
	return binary.LittleEndian.Uint32(p) == magic^crc32.ChecksumIEEE(p[4:])
}

// blocksSpanned is how many blocks the n > 0 bytes at off touch.
func blocksSpanned(off, n, bs int) int { return (off+n-1)/bs - off/bs + 1 }

// Checkpoint persists the metadata to flash through the storage manager's
// reserved metadata object. Combined with the data the write-back policy
// has migrated, this bounds what a power failure can destroy.
//
// It writes one sealed frame of the records journalled since the last
// checkpoint, nothing at all if there are none, and a whole image when a
// frame would not be the cheaper thing: there is no image to extend, the
// log with this frame would take more blocks than the image (which keeps
// a mount's reading within twice the image's blocks), or the image takes
// no more blocks than the frame would touch (a file system that fits one
// block stays at one page per checkpoint).
func (f *FS) Checkpoint() error {
	// The checkpoint stream is filesystem metadata: charge its flash
	// programs to the metadata cause, overriding any enclosing sync scope.
	defer f.obs.PushCause(obs.CauseMetadata)()
	c, bs := &f.ckpt, f.BlockBytes()
	if !c.imageNext {
		if len(f.pending) == ckptHeaderBytes {
			f.ckptCount[ckptEmpty].Inc()
			return nil
		}
		if c.logLen+len(f.pending) <= c.logCap &&
			blocksSpanned(c.logLen, len(f.pending), bs) < c.logCap/bs {
			return f.appendFrame()
		}
	}
	return f.writeImage()
}

// writeImage opens a new generation with an image of the metadata as it
// stands, and retires every older generation once the image is on flash.
func (f *FS) writeImage() error {
	c := &f.ckpt
	// Until this image commits there is nothing a frame could extend;
	// whatever it leaves on flash if it fails, the retry is numbered past.
	c.imageNext = true
	c.gen++
	img := appendState(c.image[:ckptHeaderBytes], f.snapshotState())
	c.image = img
	binary.LittleEndian.PutUint64(img[4:], c.gen)
	binary.LittleEndian.PutUint64(img[12:], uint64(len(img)-ckptHeaderBytes))
	seal(ckptImageMagic, img)
	bs := f.BlockBytes()
	for off := 0; off < len(img); off += bs {
		if err := f.sm.WriteBlock(ckptKey(c.gen, int64(off/bs)), img[off:min(off+bs, len(img))]); err != nil {
			return err
		}
	}
	if err := f.sm.SyncObject(metaObject); err != nil {
		return err
	}
	if err := f.sm.DeleteBlocksBefore(metaObject, ckptKey(c.gen, 0).Block); err != nil {
		return err
	}
	c.imageNext, c.logCap, c.logLen, c.seq, c.tail = false, blocksSpanned(0, len(img), bs)*bs, 0, 0, c.tail[:0]
	f.pending = f.pending[:ckptHeaderBytes]
	f.ckptCount[ckptImage].Inc()
	f.ckptBytes[ckptImage].Add(int64(len(img)))
	f.ckptLogBytes.Set(0)
	return nil
}

// appendFrame seals the pending records into a frame at the log's end.
func (f *FS) appendFrame() (err error) {
	c, frame := &f.ckpt, f.pending
	defer func() {
		if err != nil {
			// Flash and c.tail may disagree now: fold rather than append.
			c.imageNext = true
		}
	}()
	binary.LittleEndian.PutUint64(frame[4:], c.gen)
	binary.LittleEndian.PutUint32(frame[12:], c.seq)
	binary.LittleEndian.PutUint32(frame[16:], uint32(len(frame)-ckptHeaderBytes))
	seal(ckptFrameMagic, frame)
	bs := f.BlockBytes()
	for off, rest := c.logLen, frame; len(rest) > 0; {
		n := min(bs-len(c.tail), len(rest))
		c.tail = append(c.tail, rest[:n]...)
		if err := f.sm.WriteBlock(ckptKey(c.gen, ckptLogPart+int64(off/bs)), c.tail); err != nil {
			return err
		}
		off, rest = off+n, rest[n:]
		if len(c.tail) == bs {
			c.tail = c.tail[:0]
		}
	}
	if err := f.sm.SyncObject(metaObject); err != nil {
		return err
	}
	c.logLen += len(frame)
	c.seq++
	f.pending = frame[:ckptHeaderBytes]
	f.ckptCount[ckptFrame].Inc()
	f.ckptBytes[ckptFrame].Add(int64(len(frame)))
	f.ckptLogBytes.Set(int64(c.logLen))
	return nil
}

// Sync checkpoints the metadata and migrates all dirty data to flash: the
// full "make everything stable" operation.
func (f *FS) Sync() (err error) {
	sp := f.span("sync")
	defer func() { sp.End(0, err) }()
	f.syncs.Inc()
	if err := f.Checkpoint(); err != nil {
		return err
	}
	return f.sm.Sync()
}

// replayLog applies a generation's log to the state its image decoded to:
// each frame that opens as the next of that generation, in order, up to
// the first that does not. It reports how many it applied. A frame that
// opens holds exactly what appendFrame sealed, so records that then fail
// to decode or apply are corruption, not a torn write.
func replayLog(st *snapshotState, log []byte, gen uint64) (frames uint32, err error) {
	for len(log) >= ckptHeaderBytes {
		n := uint64(binary.LittleEndian.Uint32(log[16:]))
		if n > uint64(len(log)-ckptHeaderBytes) {
			break
		}
		frame := log[:ckptHeaderBytes+int(n)]
		if !sealed(ckptFrameMagic, frame) ||
			binary.LittleEndian.Uint64(frame[4:]) != gen ||
			binary.LittleEndian.Uint32(frame[12:]) != frames {
			break
		}
		if err := replayRecords(st, frame[ckptHeaderBytes:]); err != nil {
			return frames, fmt.Errorf("%w: generation %d, log frame %d: %v", ErrCorruptCheckpoint, gen, frames, err)
		}
		frames++
		log = log[len(frame):]
	}
	return frames, nil
}

// readRun reads the generation's blocks first, first+1, … as far as run —
// the generation's indexes, ascending — has them without a gap, and no
// further than limit blocks. A block shorter than a page reads as it was
// flushed: padded with zeros.
func readRun(sm *storman.Manager, gen uint64, run []int64, first int64, limit int) ([]byte, error) {
	start := ckptKey(gen, first)
	at, _ := slices.BinarySearch(run, start.Block)
	n := 0
	for n < limit && at+n < len(run) && run[at+n] == start.Block+int64(n) {
		n++
	}
	bs := sm.BlockBytes()
	p := make([]byte, n*bs)
	for i := 0; i < n; i++ {
		if _, err := sm.ReadBlock(storman.Key{Object: metaObject, Block: start.Block + int64(i)}, p[i*bs:(i+1)*bs]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// loadGeneration reads one generation: its image and then its log. ok is
// false if the image never committed — blocks of it are missing, as a
// power cut before its last program leaves it.
func loadGeneration(sm *storman.Manager, gen uint64, run []int64) (st snapshotState, ok bool, err error) {
	bs := sm.BlockBytes()
	img, err := readRun(sm, gen, run, 0, 1)
	if err != nil || len(img) == 0 {
		return st, false, err
	}
	if got := binary.LittleEndian.Uint64(img[4:]); got != gen {
		return st, false, fmt.Errorf("%w: image of generation %d: header names generation %d", ErrCorruptCheckpoint, gen, got)
	}
	body := binary.LittleEndian.Uint64(img[12:])
	if body > uint64(len(run)*bs) {
		return st, false, nil
	}
	need := ckptHeaderBytes + int(body)
	blocks := (need + bs - 1) / bs
	if blocks > 1 {
		rest, err := readRun(sm, gen, run, 1, blocks-1)
		if err != nil {
			return st, false, err
		}
		img = append(img, rest...)
	}
	if len(img) < need {
		return st, false, nil
	}
	img = img[:need]
	if !sealed(ckptImageMagic, img) {
		return st, false, fmt.Errorf("%w: image of generation %d: check word does not match its %d bytes", ErrCorruptCheckpoint, gen, need)
	}
	if st, err = decodeState(img[ckptHeaderBytes:]); err != nil {
		return st, false, fmt.Errorf("%w: image of generation %d: %v", ErrCorruptCheckpoint, gen, err)
	}
	// The fold rule keeps a log within as many blocks as its image.
	log, err := readRun(sm, gen, run, ckptLogPart, blocks)
	if err != nil {
		return st, false, err
	}
	_, err = replayLog(&st, log, gen)
	return st, err == nil, err
}

// loadCheckpoint rebuilds the metadata from the newest generation whose
// image committed, or the empty tree if none ever did. Older generations
// can be there too — a trim is bookkeeping a power failure forgets — and
// are superseded: a committed image holds everything older ones and their
// logs did.
func loadCheckpoint(sm *storman.Manager) (snapshotState, error) {
	all := sm.Blocks(metaObject)
	for end := len(all); end > 0; {
		gen := all[end-1] >> ckptGenShift
		start := end
		for start > 0 && all[start-1]>>ckptGenShift == gen {
			start--
		}
		st, ok, err := loadGeneration(sm, uint64(gen), all[start:end])
		if err != nil || ok {
			return st, err
		}
		end = start
	}
	return emptyState(), nil
}

// RecoverAfterPowerFailure rebuilds a file system from the flash
// checkpoint after a power failure destroyed DRAM. It restores the DRAM
// device, reverts the storage manager to flash-resident state, loads the
// last metadata checkpoint, and reaps orphaned objects. It returns the
// recovered file system and the number of data bytes lost.
func RecoverAfterPowerFailure(cfg Config, clock *sim.Clock, sm *storman.Manager, dramDev *dram.Device) (*FS, int64, error) {
	lost := sm.PowerFailRecover()
	dramDev.Restore()

	st, err := loadCheckpoint(sm)
	if err != nil {
		return nil, lost, err
	}
	f, err := openFS(cfg, clock, sm, dramDev, st, nil)
	if err != nil {
		return nil, lost, err
	}

	// Reap objects that belong to no surviving inode: files created after
	// the checkpoint whose data partially reached flash.
	for _, obj := range sm.Objects() {
		if obj == metaObject {
			continue
		}
		if _, ok := f.inodes[obj]; !ok {
			if err := sm.DeleteObject(obj); err != nil {
				return nil, lost, err
			}
		}
	}
	return f, lost, nil
}
