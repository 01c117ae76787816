package factcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// On-disk record framing. Every file in the DB — content-addressed objects
// and mutable head pointers alike — carries the same header so a reader can
// always tell a valid record from a truncated or bit-flipped one:
//
//	magic "DFC1" (4) | version (2, LE) | kind (1) | crc32 (4, LE) | len (4, LE) | payload
//
// The CRC covers the payload only; the fixed-width fields are validated
// structurally. Any mismatch surfaces as ErrCorrupt (or ErrVersion for a
// clean header from a different format generation), never as a panic or a
// silently wrong payload.
const (
	dbMagic = "DFC1"
	// Version is the on-disk format version. Bump it on any wire change;
	// old files then read back as ErrVersion and are dropped like corrupt
	// ones, falling back to re-analysis.
	Version = 1

	headerSize = 4 + 2 + 1 + 4 + 4
)

// Record kinds.
const (
	// KindRun is one completed run's record.
	KindRun byte = 1
	// KindHead is a mutable pointer naming a run record.
	KindHead byte = 3
)

// ErrCorrupt reports a structurally invalid record: bad magic, impossible
// lengths, truncation, CRC mismatch, or a content address that does not
// match the payload.
var ErrCorrupt = errors.New("factcache: corrupt record")

// ErrVersion reports a record written by a different format version.
var ErrVersion = errors.New("factcache: format version mismatch")

// DB is the fact database's storage layer: immutable content-addressed
// objects under objects/, mutable head pointers under heads/. Writes are
// atomic (temp file + rename), so readers never observe a half-written
// record through the normal API — torn files can only come from external
// corruption, which reads detect and report.
type DB struct {
	dir string
	// putMu serializes PutObject's validate-or-rewrite check so that when
	// several goroutines repair the same damaged object, exactly one write
	// happens: the first put rewrites, the rest observe the now-valid file
	// and dedup. Object writes are rare (stores only), so one mutex for
	// the whole DB costs nothing on the read path.
	putMu sync.Mutex
}

// OpenDB creates or opens the database rooted at dir.
func OpenDB(dir string) (*DB, error) {
	for _, sub := range []string{"objects", "heads"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("factcache: open db: %w", err)
		}
	}
	return &DB{dir: dir}, nil
}

// Dir reports the database root.
func (db *DB) Dir() string { return db.dir }

func (db *DB) objectPath(id string) string {
	return filepath.Join(db.dir, "objects", id[:2], id)
}

func (db *DB) headPath(key string) string {
	return filepath.Join(db.dir, "heads", key)
}

// frame wraps payload in the record header.
func frame(kind byte, payload []byte) []byte {
	b := make([]byte, headerSize+len(payload))
	copy(b, dbMagic)
	binary.LittleEndian.PutUint16(b[4:], Version)
	b[6] = kind
	binary.LittleEndian.PutUint32(b[7:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(b[11:], uint32(len(payload)))
	copy(b[headerSize:], payload)
	return b
}

// unframe validates a record and returns its payload.
func unframe(b []byte, wantKind byte) ([]byte, error) {
	if len(b) < headerSize || string(b[:4]) != dbMagic {
		return nil, ErrCorrupt
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != Version {
		return nil, fmt.Errorf("%w: file has v%d, reader is v%d", ErrVersion, v, Version)
	}
	if b[6] != wantKind {
		return nil, fmt.Errorf("%w: record kind %d, want %d", ErrCorrupt, b[6], wantKind)
	}
	n := binary.LittleEndian.Uint32(b[11:])
	if uint64(len(b)) != uint64(headerSize)+uint64(n) {
		return nil, fmt.Errorf("%w: payload length %d, file holds %d", ErrCorrupt, n, len(b)-headerSize)
	}
	payload := b[headerSize:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[7:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// atomicWrite replaces path with data via a same-directory temp file and
// rename, so concurrent readers see either the old record or the new one,
// never a prefix.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// ObjectID is the content address of a payload.
func ObjectID(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// PutObject stores payload under its content address. created reports
// whether a new object was written (false = identical object already
// present, the dedup path). An existing file only counts as present if it
// validates — a corrupt or truncated object is rewritten, so one Store
// always repairs whatever external damage reads have detected.
func (db *DB) PutObject(kind byte, payload []byte) (id string, created bool, err error) {
	db.putMu.Lock()
	defer db.putMu.Unlock()
	id = ObjectID(payload)
	path := db.objectPath(id)
	if b, rerr := os.ReadFile(path); rerr == nil {
		if got, uerr := unframe(b, kind); uerr == nil && ObjectID(got) == id {
			return id, false, nil
		}
	}
	if err := atomicWrite(path, frame(kind, payload)); err != nil {
		return "", false, fmt.Errorf("factcache: put object: %w", err)
	}
	return id, true, nil
}

// GetObject reads and validates an object. A missing object returns an
// fs.ErrNotExist error; an invalid one returns ErrCorrupt/ErrVersion. The
// payload is additionally checked against its content address, so a record
// that passes the CRC but sits under the wrong name still reads as corrupt.
func (db *DB) GetObject(id string, wantKind byte) ([]byte, error) {
	if len(id) < 2 {
		return nil, fmt.Errorf("%w: malformed object id %q", ErrCorrupt, id)
	}
	b, err := os.ReadFile(db.objectPath(id))
	if err != nil {
		return nil, err
	}
	payload, err := unframe(b, wantKind)
	if err != nil {
		return nil, err
	}
	if ObjectID(payload) != id {
		return nil, fmt.Errorf("%w: content does not match address", ErrCorrupt)
	}
	return payload, nil
}

// RemoveObject deletes an object (no-op if absent); used to clear records
// that failed validation so a later store can rewrite them.
func (db *DB) RemoveObject(id string) {
	if len(id) >= 2 {
		os.Remove(db.objectPath(id))
	}
}

// SetHead atomically points the named head at an object id.
func (db *DB) SetHead(key, id string) error {
	if err := atomicWrite(db.headPath(key), frame(KindHead, []byte(id))); err != nil {
		return fmt.Errorf("factcache: set head: %w", err)
	}
	return nil
}

// Head reads a head pointer. A missing head returns fs.ErrNotExist; an
// invalid one ErrCorrupt/ErrVersion.
func (db *DB) Head(key string) (string, error) {
	b, err := os.ReadFile(db.headPath(key))
	if err != nil {
		return "", err
	}
	payload, err := unframe(b, KindHead)
	if err != nil {
		return "", err
	}
	if len(payload) != 2*sha256.Size {
		return "", fmt.Errorf("%w: head names a malformed object id", ErrCorrupt)
	}
	return string(payload), nil
}

// RemoveHead deletes a head pointer (no-op if absent).
func (db *DB) RemoveHead(key string) {
	os.Remove(db.headPath(key))
}

// IsNotExist reports whether err is a plain absence (as opposed to
// corruption): the caller treats it as a quiet miss.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
