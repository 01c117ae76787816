package factcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// On-disk record framing. Every file in the DB — run records and head
// pointers alike — carries the same header so a reader can always tell a
// valid record from a truncated or bit-flipped one:
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
	// KindRun is one completed run's record, stored at runs/<key id>.
	KindRun byte = 1
	// KindHead is a diff anchor's pointer, stored at heads/<anchor id>,
	// naming the key id of the latest run under that anchor.
	KindHead byte = 3
)

// ErrCorrupt reports a structurally invalid record: bad magic, impossible
// lengths, truncation or a CRC mismatch.
var ErrCorrupt = errors.New("factcache: corrupt record")

// ErrVersion reports a record written by a different format version.
var ErrVersion = errors.New("factcache: format version mismatch")

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

// readRecord reads the record at path and returns its validated payload.
// A missing file returns an fs.ErrNotExist error; an invalid one
// ErrCorrupt/ErrVersion.
func readRecord(path string, kind byte) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return unframe(b, kind)
}

// writeRecord atomically replaces path with a framed record.
func writeRecord(path string, kind byte, payload []byte) error {
	if err := atomicWrite(path, frame(kind, payload)); err != nil {
		return fmt.Errorf("factcache: write record: %w", err)
	}
	return nil
}

// atomicWrite replaces path with data via a same-directory temp file and
// rename, so concurrent readers and writers see either the old record or
// a whole new one, never a prefix.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
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
