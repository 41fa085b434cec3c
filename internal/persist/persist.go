// Package persist implements the on-disk codec of the warm-start cache: a
// flate-compressed gob payload behind a fixed binary integrity header. The
// header carries a magic tag, a format version, and the payload's length
// and FNV-64a checksum, so a reader can reject foreign files, files written
// by an incompatible release, and bit-rotted or truncated files *before*
// feeding bytes to the decompressor. Writes go through a temp file, an
// fsync of that file, an atomic rename, and an fsync of the parent
// directory, so a crashed writer never leaves a half-written cache behind
// and a crashed *machine* cannot rename a file whose bytes never reached
// the disk — at worst the old file survives.
//
// All filesystem access goes through the FS seam (SetFS), so the chaos
// test layer can inject torn writes, failed renames, and failed fsyncs;
// the integrity header is what turns any of those into a detected
// ErrCorrupt and a clean cold start instead of silent corruption.
//
// The package is deliberately schema-agnostic: callers own the payload
// types and the version constant. Bumping the version is the only
// invalidation signal — a version-mismatched file is rejected with
// ErrVersion (never migrated), which the callers treat as a cold start.
package persist

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// FS is the filesystem seam the write path runs through. The default (OS)
// talks to the real filesystem with full durability (fsync before and
// after the rename); tests swap in a fault-injecting implementation via
// SetFS to simulate torn writes, failed renames, and failed syncs.
type FS interface {
	// MkdirAll creates the cache directory chain.
	MkdirAll(path string, perm os.FileMode) error
	// WriteFileSync writes data to path and syncs it to stable storage
	// before returning: a success means the bytes are on disk, not just in
	// the page cache.
	WriteFileSync(path string, data []byte, perm os.FileMode) error
	// Rename atomically installs the synced temp file.
	Rename(oldpath, newpath string) error
	// SyncDir syncs the directory containing a just-renamed file, making
	// the rename itself durable.
	SyncDir(path string) error
	// Remove cleans up a temp file after a failed install.
	Remove(path string) error
}

// OS is the default FS: the real filesystem, with the temp file fsynced
// before the rename and the parent directory fsynced after it.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// WriteFileSync implements FS: write, fsync, close.
func (OS) WriteFileSync(path string, data []byte, perm os.FileMode) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// SyncDir implements FS: fsync the directory so the rename is durable.
func (OS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Remove implements FS.
func (OS) Remove(path string) error { return os.Remove(path) }

// fsSeam holds the active FS boxed in a struct (atomic.Value demands one
// consistent concrete type); nil means OS{}. Atomic so a concurrent
// reader (a reload saving the cache) never observes a torn swap.
var fsSeam atomic.Value // of fsBox

type fsBox struct{ fs FS }

// activeFS returns the FS the write path should use.
func activeFS() FS {
	if v := fsSeam.Load(); v != nil {
		return v.(fsBox).fs
	}
	return OS{}
}

// SetFS swaps the filesystem seam (nil restores the default) and returns
// a function restoring the previous one — tests defer it.
func SetFS(f FS) (restore func()) {
	prev := activeFS()
	if f == nil {
		f = OS{}
	}
	fsSeam.Store(fsBox{f})
	return func() { fsSeam.Store(fsBox{prev}) }
}

// magic tags every cache file written by this package.
var magic = [4]byte{'H', 'Y', 'W', 'C'} // HYbrid Warm Cache

// headerLen is the fixed prefix: magic, version, payload length, checksum.
const headerLen = 4 + 4 + 8 + 8

// ErrCorrupt marks a file that is not a well-formed cache file: wrong
// magic, truncated, trailing garbage, checksum mismatch, or an undecodable
// payload.
var ErrCorrupt = errors.New("persist: corrupt cache file")

// ErrVersion marks a structurally valid cache file written under a
// different format version.
var ErrVersion = errors.New("persist: cache format version mismatch")

// SaveCompressed gob-encodes payload, deflates the stream, and writes it to
// path behind the integrity header, atomically (temp file + rename). The
// header is computed after compression, so the length and checksum cover
// the bytes actually on disk. Parent directories are created as needed.
func SaveCompressed(path string, version uint32, payload interface{}) error {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return fmt.Errorf("persist: creating compressor: %w", err)
	}
	if err := gob.NewEncoder(zw).Encode(payload); err != nil {
		return fmt.Errorf("persist: encoding cache payload: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("persist: compressing cache payload: %w", err)
	}
	return writeFile(path, version, buf.Bytes())
}

// writeFile frames body with the integrity header and installs it at path
// atomically and durably: synced temp file, rename, synced parent
// directory. Parent directories are created as needed.
func writeFile(path string, version uint32, body []byte) error {
	h := fnv.New64a()
	h.Write(body)

	out := make([]byte, headerLen, headerLen+len(body))
	copy(out[0:4], magic[:])
	binary.LittleEndian.PutUint32(out[4:8], version)
	binary.LittleEndian.PutUint64(out[8:16], uint64(len(body)))
	binary.LittleEndian.PutUint64(out[16:24], h.Sum64())
	out = append(out, body...)

	fs := activeFS()
	dir := filepath.Dir(path)
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: creating cache directory: %w", err)
	}
	tmp := path + ".tmp"
	if err := fs.WriteFileSync(tmp, out, 0o644); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("persist: writing cache file: %w", err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("persist: installing cache file: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("persist: syncing cache directory: %w", err)
	}
	return nil
}

// LoadCompressed reads a file written by SaveCompressed, validates the
// integrity header against version, inflates the body, and gob-decodes it
// into out. A missing file returns the underlying fs error (test with
// os.IsNotExist / errors.Is(err, fs.ErrNotExist)); every malformed-content
// condition returns an error wrapping ErrCorrupt or ErrVersion — including
// a flate stream that fails to decompress (e.g. a payload truncated before
// compression, which the checksum cannot catch). On error out may be
// partially written (gob decodes in place), so callers must decode into a
// scratch value and only adopt it on success.
func LoadCompressed(path string, version uint32, out interface{}) error {
	body, err := readBody(path, version)
	if err != nil {
		return err
	}
	zr := flate.NewReader(bytes.NewReader(body))
	defer zr.Close()
	if err := gob.NewDecoder(zr).Decode(out); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	// Trailing garbage after the gob value must still be a well-formed end
	// of stream, or the file was stitched together from two payloads.
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	return nil
}

// readBody reads path and validates the integrity header against version,
// returning the raw (compressed) body bytes.
func readBody(path string, version uint32) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < headerLen || !bytes.Equal(data[0:4], magic[:]) {
		return nil, fmt.Errorf("%w: %s: bad header", ErrCorrupt, path)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != version {
		return nil, fmt.Errorf("%w: %s: file has format v%d, this build reads v%d", ErrVersion, path, v, version)
	}
	body := data[headerLen:]
	if wantLen := binary.LittleEndian.Uint64(data[8:16]); wantLen != uint64(len(body)) {
		return nil, fmt.Errorf("%w: %s: payload is %d bytes, header says %d", ErrCorrupt, path, len(body), wantLen)
	}
	h := fnv.New64a()
	h.Write(body)
	if wantSum := binary.LittleEndian.Uint64(data[16:24]); wantSum != h.Sum64() {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, path)
	}
	return body, nil
}

// Info describes a cache file's header, read without decoding the payload
// (Probe). Version is whatever the file claims — callers compare it against
// their own constant to report v1-vs-v2 in diagnostics.
type Info struct {
	// Version is the format version recorded in the header.
	Version uint32
	// PayloadBytes is the (compressed) body length recorded in the header.
	PayloadBytes int64
	// FileBytes is the total on-disk size including the header.
	FileBytes int64
}

// Probe reads only a file's integrity header and reports its format
// version and sizes. It validates the magic and the recorded length, but
// not the checksum (the point is cheap diagnostics, not admission); a
// missing file returns the fs error, a non-cache file ErrCorrupt.
//
// Only the 24-byte header is ever read: the payload length claimed by the
// header is checked against the file's stat size, never used to size a
// read, so a malformed file claiming a multi-exabyte payload costs 24
// bytes of I/O and no allocation.
func Probe(path string) (Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return Info{}, err
	}
	defer f.Close()
	var header [headerLen]byte
	if _, err := io.ReadFull(f, header[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return Info{}, fmt.Errorf("%w: %s: bad header", ErrCorrupt, path)
		}
		return Info{}, err
	}
	if !bytes.Equal(header[0:4], magic[:]) {
		return Info{}, fmt.Errorf("%w: %s: bad header", ErrCorrupt, path)
	}
	st, err := f.Stat()
	if err != nil {
		return Info{}, err
	}
	info := Info{
		Version:      binary.LittleEndian.Uint32(header[4:8]),
		PayloadBytes: int64(binary.LittleEndian.Uint64(header[8:16])),
		FileBytes:    st.Size(),
	}
	if info.PayloadBytes != info.FileBytes-headerLen {
		return Info{}, fmt.Errorf("%w: %s: payload is %d bytes, header says %d",
			ErrCorrupt, path, info.FileBytes-headerLen, info.PayloadBytes)
	}
	return info, nil
}
