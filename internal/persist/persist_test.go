package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type payload struct {
	Name  string
	Vals  []int64
	Table map[int][]int
}

func samplePayload() payload {
	return payload{
		Name:  "skeleton",
		Vals:  []int64{1, 2, 3, 1 << 60},
		Table: map[int][]int{0: {1, 2}, 7: {9}},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "cache.hybc")
	want := samplePayload()
	if err := SaveCompressed(path, 3, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := LoadCompressed(path, 3, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	// No temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file survived the rename: %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	var got payload
	err := LoadCompressed(filepath.Join(t.TempDir(), "absent.hybc"), 1, &got)
	if !os.IsNotExist(err) {
		t.Errorf("missing file: got %v, want IsNotExist", err)
	}
}

func TestLoadVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.hybc")
	if err := SaveCompressed(path, 1, samplePayload()); err != nil {
		t.Fatal(err)
	}
	var got payload
	err := LoadCompressed(path, 2, &got)
	if !errors.Is(err, ErrVersion) {
		t.Errorf("version mismatch: got %v, want ErrVersion", err)
	}
}

// TestLoadCorruptions flips, truncates, and extends a valid file and
// requires every mutation to be rejected with ErrCorrupt.
func TestLoadCorruptions(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.hybc")
	if err := SaveCompressed(path, 1, samplePayload()); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func([]byte) []byte{
		"empty":           func(b []byte) []byte { return nil },
		"short header":    func(b []byte) []byte { return b[:headerLen-1] },
		"bad magic":       func(b []byte) []byte { b[0] ^= 0xff; return b },
		"flipped payload": func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"truncated":       func(b []byte) []byte { return b[:len(b)-5] },
		"trailing bytes":  func(b []byte) []byte { return append(b, 0xaa) },
		"flipped length":  func(b []byte) []byte { b[8] ^= 0x01; return b },
		"flipped sum":     func(b []byte) []byte { b[16] ^= 0x01; return b },
	}
	for name, mutate := range cases {
		mutated := mutate(append([]byte(nil), valid...))
		p := filepath.Join(dir, "mut.hybc")
		if err := os.WriteFile(p, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		var got payload
		if err := LoadCompressed(p, 1, &got); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestSaveOverwritesAtomically pins the overwrite path: saving over an
// existing file replaces it and the new contents load cleanly.
func TestSaveOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.hybc")
	if err := SaveCompressed(path, 1, payload{Name: "old"}); err != nil {
		t.Fatal(err)
	}
	if err := SaveCompressed(path, 1, payload{Name: "new"}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := LoadCompressed(path, 1, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "new" {
		t.Errorf("got %q, want the overwritten payload", got.Name)
	}
}

// TestCompressedRoundTrip pins the codec on a repetitive payload: it loads
// back identically, the file is smaller than the bare gob encoding, and
// Probe reports its header without decoding.
func TestCompressedRoundTrip(t *testing.T) {
	big := payload{Name: "big", Table: map[int][]int{}}
	for i := 0; i < 2000; i++ {
		big.Vals = append(big.Vals, int64(i%7))
		big.Table[i] = []int{1, 2, 3, 4, 5}
	}
	packed := filepath.Join(t.TempDir(), "packed.hybc")
	if err := SaveCompressed(packed, 2, big); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := LoadCompressed(packed, 2, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, big) {
		t.Error("compressed round trip diverged")
	}
	var raw bytes.Buffer
	if err := gob.NewEncoder(&raw).Encode(big); err != nil {
		t.Fatal(err)
	}
	packedInfo, err := Probe(packed)
	if err != nil {
		t.Fatal(err)
	}
	if packedInfo.PayloadBytes >= int64(raw.Len()) {
		t.Errorf("compression grew the payload: %d vs gob %d", packedInfo.PayloadBytes, raw.Len())
	}
	if packedInfo.Version != 2 || packedInfo.PayloadBytes != packedInfo.FileBytes-int64(headerLen) {
		t.Errorf("probe reported %+v", packedInfo)
	}
}

// TestLoadCompressedTruncatedStream pins the failure mode the outer
// checksum cannot catch: a file whose header and checksum are valid but
// whose flate stream was truncated before framing. It must be ErrCorrupt.
func TestLoadCompressedTruncatedStream(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.hybc")
	big := samplePayload()
	for i := 0; i < 500; i++ {
		big.Vals = append(big.Vals, int64(i))
	}
	if err := SaveCompressed(path, 2, big); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the compressed body, then re-frame it with a fresh, valid
	// header so only the flate layer can notice.
	body := data[headerLen : len(data)-20]
	if err := writeFile(path, 2, body); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := LoadCompressed(path, 2, &got); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated compressed payload: got %v, want ErrCorrupt", err)
	}
}

// TestProbeErrors pins Probe's rejection of non-cache files.
func TestProbeErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Probe(filepath.Join(dir, "absent.hybc")); !os.IsNotExist(err) {
		t.Errorf("missing file: got %v, want IsNotExist", err)
	}
	junk := filepath.Join(dir, "junk.hybc")
	if err := os.WriteFile(junk, []byte("not a cache file at all......."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Probe(junk); !errors.Is(err, ErrCorrupt) {
		t.Errorf("junk file: got %v, want ErrCorrupt", err)
	}

	// A header claiming an absurd payload length must be rejected from the
	// 24-byte header alone — checked against the stat size, never used to
	// size a read or allocation.
	huge := filepath.Join(dir, "huge.hybc")
	header := make([]byte, 24)
	copy(header, "HYWC")
	binary.LittleEndian.PutUint32(header[4:8], 2)
	binary.LittleEndian.PutUint64(header[8:16], 1<<60) // claimed payload: 1 EiB
	if err := os.WriteFile(huge, header, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Probe(huge); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge claimed payload: got %v, want ErrCorrupt", err)
	}

	// Truncated header: shorter than the fixed 24-byte prefix.
	short := filepath.Join(dir, "short.hybc")
	if err := os.WriteFile(short, []byte("HYWC"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Probe(short); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated header: got %v, want ErrCorrupt", err)
	}

	// Wrong magic with an otherwise plausible header.
	wrong := filepath.Join(dir, "wrong.hybc")
	bad := make([]byte, 24)
	copy(bad, "NOPE")
	if err := os.WriteFile(wrong, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Probe(wrong); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong magic: got %v, want ErrCorrupt", err)
	}
}

// TestPackUnpackVectors pins the varint codecs: round trips, strictness of
// the sorted decoder, and rejection of malformed buffers.
func TestPackUnpackVectors(t *testing.T) {
	for _, ids := range [][]int{nil, {0}, {0, 1, 2}, {5, 100, 101, 1 << 30}} {
		got, err := UnpackSorted(PackSorted(ids))
		if err != nil {
			t.Fatalf("%v: %v", ids, err)
		}
		if len(got) != len(ids) || (len(ids) > 0 && !reflect.DeepEqual(got, ids)) {
			t.Errorf("sorted round trip %v -> %v", ids, got)
		}
	}
	for _, vals := range [][]int64{nil, {0}, {-5, 7, 1 << 62, -(1 << 62)}} {
		got, err := UnpackInt64s(PackInt64s(vals))
		if err != nil {
			t.Fatalf("%v: %v", vals, err)
		}
		if len(got) != len(vals) || (len(vals) > 0 && !reflect.DeepEqual(got, vals)) {
			t.Errorf("int64 round trip %v -> %v", vals, got)
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("PackSorted accepted unsorted input")
			}
		}()
		PackSorted([]int{3, 2})
	}()

	bad := map[string][]byte{
		"empty":          {},
		"huge count":     {0xff, 0xff, 0xff, 0xff, 0x01},
		"missing deltas": PackSorted([]int{1, 2, 3})[:2],
		"trailing":       append(PackSorted([]int{1, 2}), 0x05),
		"zero delta":     {2, 1, 0}, // count 2, delta 1, delta 0 (not increasing)
	}
	for name, buf := range bad {
		if _, err := UnpackSorted(buf); err == nil {
			t.Errorf("UnpackSorted accepted %s", name)
		}
	}
	if _, err := UnpackInt64s(append(PackInt64s([]int64{1}), 0x09)); err == nil {
		t.Error("UnpackInt64s accepted trailing bytes")
	}
}

// TestUnpackSortedOverflow pins the int-overflow guard of the delta
// decoder: a first delta of exactly maxInt+1 (from the implicit -1) is
// the largest representable element and must decode; anything past it —
// a bigger first delta, or any further delta once prev sits at maxInt —
// must be rejected, never silently wrapped.
func TestUnpackSortedOverflow(t *testing.T) {
	maxInt := int(^uint(0) >> 1)

	exact := binary.AppendUvarint([]byte{1}, uint64(maxInt)+1)
	got, err := UnpackSorted(exact)
	if err != nil || len(got) != 1 || got[0] != maxInt {
		t.Errorf("delta to maxInt: got %v, %v", got, err)
	}

	over := binary.AppendUvarint([]byte{1}, uint64(maxInt)+2)
	if _, err := UnpackSorted(over); err == nil {
		t.Error("delta past maxInt accepted")
	}

	past := binary.AppendUvarint([]byte{2}, uint64(maxInt)+1)
	past = binary.AppendUvarint(past, 1)
	if _, err := UnpackSorted(past); err == nil {
		t.Error("delta beyond a maxInt element accepted")
	}
}

// recordFS wraps OS and records the seam calls writeFile makes, optionally
// failing a chosen call.
type recordFS struct {
	inner OS
	calls *[]string
	fail  string // name of the call to fail, "" for none
}

func (r recordFS) note(call string) error {
	*r.calls = append(*r.calls, call)
	if r.fail == call {
		return errors.New("injected " + call + " failure")
	}
	return nil
}

func (r recordFS) MkdirAll(path string, perm os.FileMode) error {
	if err := r.note("mkdir:" + filepath.Base(path)); err != nil {
		return err
	}
	return r.inner.MkdirAll(path, perm)
}

func (r recordFS) WriteFileSync(path string, data []byte, perm os.FileMode) error {
	if err := r.note("write:" + filepath.Base(path)); err != nil {
		return err
	}
	return r.inner.WriteFileSync(path, data, perm)
}

func (r recordFS) Rename(oldpath, newpath string) error {
	if err := r.note("rename:" + filepath.Base(oldpath) + "->" + filepath.Base(newpath)); err != nil {
		return err
	}
	return r.inner.Rename(oldpath, newpath)
}

func (r recordFS) SyncDir(path string) error {
	if err := r.note("syncdir:" + filepath.Base(path)); err != nil {
		return err
	}
	return r.inner.SyncDir(path)
}

func (r recordFS) Remove(path string) error {
	*r.calls = append(*r.calls, "remove:"+filepath.Base(path))
	return r.inner.Remove(path)
}

// TestWriteFileDurabilityOrder pins the crash-safe write sequence: the temp
// file is written-and-synced before the rename, and the parent directory is
// synced after it, so a machine crash at any point leaves either the old
// file or the complete new one.
func TestWriteFileDurabilityOrder(t *testing.T) {
	var calls []string
	restore := SetFS(recordFS{calls: &calls})
	defer restore()

	path := filepath.Join(t.TempDir(), "sub", "cache.hybc")
	if err := SaveCompressed(path, 1, samplePayload()); err != nil {
		t.Fatal(err)
	}
	want := []string{"mkdir:sub", "write:cache.hybc.tmp", "rename:cache.hybc.tmp->cache.hybc", "syncdir:sub"}
	if !reflect.DeepEqual(calls, want) {
		t.Errorf("write sequence:\n got %v\nwant %v", calls, want)
	}
	var got payload
	if err := LoadCompressed(path, 1, &got); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFileFaultCleanup pins the failure paths: a failed write or
// rename removes the temp file and surfaces the injected error; a failed
// directory sync surfaces too (the data may not survive a crash).
func TestWriteFileFaultCleanup(t *testing.T) {
	for _, fail := range []string{
		"write:cache.hybc.tmp",
		"rename:cache.hybc.tmp->cache.hybc",
		"syncdir:sub",
	} {
		var calls []string
		restore := SetFS(recordFS{calls: &calls, fail: fail})
		path := filepath.Join(t.TempDir(), "sub", "cache.hybc")
		err := SaveCompressed(path, 1, samplePayload())
		restore()
		if err == nil {
			t.Errorf("fail %s: SaveCompressed succeeded", fail)
			continue
		}
		if _, serr := os.Stat(path + ".tmp"); !os.IsNotExist(serr) {
			t.Errorf("fail %s: temp file left behind", fail)
		}
	}
}

// TestSetFSRestore pins the seam contract: the restore closure reinstates
// the previous FS, and SetFS(nil) means the real filesystem.
func TestSetFSRestore(t *testing.T) {
	var calls []string
	restore := SetFS(recordFS{calls: &calls})
	restore2 := SetFS(nil)
	path := filepath.Join(t.TempDir(), "cache.hybc")
	if err := SaveCompressed(path, 1, samplePayload()); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 0 {
		t.Errorf("SetFS(nil) still routed through the recording FS: %v", calls)
	}
	restore2()
	if err := SaveCompressed(path, 1, samplePayload()); err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Error("restore did not reinstate the recording FS")
	}
	restore()
}
