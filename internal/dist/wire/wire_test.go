package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/sim"
)

func roundTripFrame(t *testing.T, f Frame) Frame {
	t.Helper()
	enc := AppendFrame(nil, f)
	got, n, err := DecodeFrame(enc)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	fromReader, err := ReadFrame(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if !reflect.DeepEqual(got, fromReader) {
		t.Fatalf("DecodeFrame and ReadFrame disagree: %+v vs %+v", got, fromReader)
	}
	return got
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Type: FrameShutdown},
		{Type: FrameJoin, Shard: 3, Payload: AppendHandshake(nil, 3)},
		{Type: FrameRound, Round: 12345, Shard: 7, Payload: []byte("hello")},
		{Type: FrameError, Payload: []byte("boom")},
		{Type: FrameRound, Round: 1, Payload: bytes.Repeat([]byte("abcdefgh"), 2048)},
	}
	for i, f := range cases {
		got := roundTripFrame(t, f)
		if got.Type != f.Type || got.Round != f.Round || got.Shard != f.Shard || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("case %d: round trip %+v -> %+v", i, f, got)
		}
	}
}

// TestFrameIsRaw: a payload of any size travels verbatim behind the header
// (length, checksum, type, flags, a three-byte round, a one-byte shard).
func TestFrameIsRaw(t *testing.T) {
	f := Frame{Type: FrameRound, Round: 100_000, Payload: bytes.Repeat([]byte{42}, 100_000)}
	enc := AppendFrame(nil, f)
	const header = 4 + 8 + 1 + 1 + 3 + 1
	if len(enc) != header+len(f.Payload) || !bytes.Equal(enc[header:], f.Payload) {
		t.Fatalf("encoded %d bytes for a %d-byte payload, want the %d-byte header and the payload verbatim",
			len(enc), len(f.Payload), header)
	}
	if got := roundTripFrame(t, f); !bytes.Equal(got.Payload, f.Payload) {
		t.Fatal("payload corrupted in round trip")
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	valid := AppendFrame(nil, Frame{Type: FrameRound, Round: 9, Shard: 1, Payload: []byte("payload")})

	t.Run("short buffer", func(t *testing.T) {
		if _, _, err := DecodeFrame([]byte{1, 2}); !errors.Is(err, ErrMalformed) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("length exceeds buffer", func(t *testing.T) {
		// Claim a huge-but-legal body length with almost no bytes behind
		// it: must be rejected up front, before any allocation.
		hdr := binary.LittleEndian.AppendUint32(nil, MaxFrameLen)
		hdr = append(hdr, 0xab)
		_, _, err := DecodeFrame(hdr)
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "remaining") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("length over MaxFrameLen", func(t *testing.T) {
		hdr := binary.LittleEndian.AppendUint32(nil, MaxFrameLen+1)
		if _, _, err := DecodeFrame(hdr); !errors.Is(err, ErrMalformed) {
			t.Fatalf("err = %v", err)
		}
		if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("reader err not malformed")
		}
	})
	t.Run("checksum flip", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[len(bad)-1] ^= 0xff
		_, _, err := DecodeFrame(bad)
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated stream", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader(valid[:len(valid)-2])); !errors.Is(err, ErrMalformed) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("unknown flags", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[4+8+1] = 0x80 // flags byte
		// Re-checksum so the flags check (not the checksum) fires.
		rebuild := AppendFrame(nil, Frame{Type: FrameRound, Round: 9, Shard: 1, Payload: []byte("payload")})
		rebuild[4+8+1] = 0x80
		fixChecksum(rebuild)
		_, _, err := DecodeFrame(rebuild)
		if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "flags") {
			t.Fatalf("err = %v", err)
		}
		_ = bad
	})
	t.Run("reserved byte set", func(t *testing.T) {
		for _, flags := range []byte{0x01, 0x80} {
			enc := AppendFrame(nil, Frame{Type: FrameRound, Round: 1, Payload: []byte("xx")})
			enc[4+8+1] = flags
			fixChecksum(enc)
			if _, _, err := DecodeFrame(enc); !errors.Is(err, ErrMalformed) {
				t.Fatalf("flags %#02x: err = %v", flags, err)
			}
		}
	})
}

// fixChecksum recomputes a frame's checksum after a test mutated its body.
func fixChecksum(frame []byte) {
	h := fnvSum(frame[12:])
	binary.LittleEndian.PutUint64(frame[4:12], h)
}

func fnvSum(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

func TestMsgsRoundTrip(t *testing.T) {
	msgs := []sim.GlobalMsg{
		{Src: 0, Dst: 5, Kind: 3, F0: -1, F1: 1 << 40, F2: 0, F3: 7},
		{Src: 9, Dst: 2, Kind: 65535, F0: 42, F1: -42, F2: 1, F3: -1},
	}
	for _, batch := range [][]sim.GlobalMsg{nil, msgs} {
		enc := AppendMsgs(nil, batch)
		got, err := DecodeMsgs(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(batch) {
			t.Fatalf("decoded %d msgs, want %d", len(got), len(batch))
		}
		for i := range batch {
			if got[i] != batch[i] {
				t.Fatalf("msg %d: %+v != %+v", i, got[i], batch[i])
			}
		}
	}
}

// TestReusingForms: ReadFrameInto reads a stream of frames through one
// buffer, each frame equal to what ReadFrame returns, and
// AppendDecodedMsgs appends after what dst holds, leaving dst at its
// length when the batch is malformed.
func TestReusingForms(t *testing.T) {
	big := AppendMsgs(nil, make([]sim.GlobalMsg, 300))
	frames := []Frame{
		{Type: FrameRound, Round: 1, Shard: 2, Payload: big},
		{Type: FrameRoundReply, Round: 2, Payload: []byte("short")},
		{Type: FrameShutdown},
	}
	var stream []byte
	for _, f := range frames {
		stream = AppendFrame(stream, f)
	}
	r := bytes.NewReader(stream)
	var buf []byte
	for i, want := range frames {
		got, next, err := ReadFrameInto(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i > 0 && cap(next) != cap(buf) {
			t.Fatalf("frame %d: the buffer grew from %d to %d bytes for a smaller frame", i, cap(buf), cap(next))
		}
		if got.Type != want.Type || got.Round != want.Round || got.Shard != want.Shard || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: read %+v, want %+v", i, got, want)
		}
		buf = next
	}

	prefix := []sim.GlobalMsg{{Src: 1, Dst: 2, Kind: 3}}
	msgs := []sim.GlobalMsg{{Src: 4, Dst: 5, F0: -6}, {Src: 7, Dst: 8, F3: 9}}
	got, err := AppendDecodedMsgs(slices.Clone(prefix), AppendMsgs(nil, msgs))
	if err != nil || !reflect.DeepEqual(got, append(slices.Clone(prefix), msgs...)) {
		t.Fatalf("appended %+v, %v; want the prefix then the batch", got, err)
	}
	bad := AppendMsgs(nil, msgs)
	got, err = AppendDecodedMsgs(slices.Clone(prefix), bad[:len(bad)-1])
	if !errors.Is(err, ErrMalformed) || !reflect.DeepEqual(got, prefix) {
		t.Fatalf("truncated batch: %+v, %v; want the prefix alone and ErrMalformed", got, err)
	}
}

func TestMsgsRejectsMalformed(t *testing.T) {
	valid := AppendMsgs(nil, []sim.GlobalMsg{{Src: 1, Dst: 2, Kind: 3}})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := DecodeMsgs(append(valid, 0)); !errors.Is(err, ErrMalformed) {
			t.Fatal("trailing bytes accepted")
		}
	})
	t.Run("count exceeds buffer", func(t *testing.T) {
		// A message count claiming far more rows than remain: refused
		// before the batch is allocated.
		bad := binary.AppendUvarint(nil, 1<<40)
		if _, err := DecodeMsgs(bad); !errors.Is(err, ErrMalformed) {
			t.Fatal("oversized message count accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodeMsgs(valid[:len(valid)/2]); err == nil {
			t.Fatal("truncated batch accepted")
		}
	})
	t.Run("negative endpoint", func(t *testing.T) {
		// A batch with Src = -1.
		enc := AppendMsgs(nil, []sim.GlobalMsg{{Src: -1, Dst: 2}})
		if _, err := DecodeMsgs(enc); !errors.Is(err, ErrMalformed) {
			t.Fatal("negative src accepted")
		}
	})
}

// TestReplyRoundTrip: a RoundReply carries the shard's batch in delivery
// order and nothing else, so a version-3 reply, which led with a section of
// the worker's counts, does not decode.
func TestReplyRoundTrip(t *testing.T) {
	msgs := []sim.GlobalMsg{{Src: 3, Dst: 1, Kind: 2, F0: 9}, {Src: 0, Dst: 2}}
	f := roundTripFrame(t, Frame{Type: FrameRoundReply, Round: 4, Shard: 1, Payload: AppendMsgs(nil, msgs)})
	got, err := DecodeMsgs(f.Payload)
	if err != nil || !reflect.DeepEqual(got, msgs) {
		t.Fatalf("reply round trip: %+v %v", got, err)
	}
	v3 := append(ints(int64(len(msgs)), 0, 1, -1, 0), AppendMsgs(nil, msgs)...)
	if _, err := DecodeMsgs(v3); !errors.Is(err, ErrMalformed) {
		t.Fatalf("version-3 reply decoded: %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	for i, h := range []Hello{{N: 100, Shard: 2, Lo: 50, Hi: 75}, {N: 4, Lo: 0, Hi: 4}, {N: 4, Shard: 3, Lo: 4, Hi: 4}} {
		got, err := DecodeHello(AppendHello(nil, h))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != h {
			t.Fatalf("case %d: %+v != %+v", i, got, h)
		}
	}
	if _, err := DecodeHello([]byte{0xff}); !errors.Is(err, ErrMalformed) {
		t.Fatal("garbage hello accepted")
	}
	if _, err := DecodeHello(ints(Version, 8, 0, 0)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("4-int hello at this version accepted: %v", err)
	}
	// A node range that is not one inside [0, N) is malformed: the worker
	// would check every destination against it.
	for _, bad := range []Hello{{N: 8, Lo: 6, Hi: 2}, {N: 8, Lo: 0, Hi: 9}, {N: 8, Lo: 9, Hi: 9}} {
		if _, err := DecodeHello(AppendHello(nil, bad)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("hello %+v: %v, want ErrMalformed", bad, err)
		}
	}
	// The hellos of older builds are refused by their version, whatever
	// their length: version 1's 9 ints, the retired version 2's 10,
	// version 3's 8, version 4's 5.
	for _, old := range [][]byte{v1Hello, windowedHello, v3Hello, v4Hello} {
		_, err := DecodeHello(old)
		if err == nil || !strings.Contains(err.Error(), "this build speaks 5") {
			t.Fatalf("older build's hello: %v, want a version refusal", err)
		}
	}
}

// ints is a payload of one section holding vals, the way every handshake
// and hello section is laid out.
func ints(vals ...int64) []byte { return appendSection(nil, persist.PackInt64s(vals)) }

// v1Hello is version 1's hello: a ninth int, the liveness-beacon period,
// before the cut marker.
var v1Hello = ints(1, 8, 3, 0, 0, 8, 0, 500, 0)

// windowedHello is the hello payload of the retired version 2: a tenth int,
// the pipelining window, before the cut marker.
var windowedHello = ints(2, 8, 3, 0, 0, 8, 0, 0, 4, 0)

// v3Hello is version 3's hello: N, log n, shard, range, receive cap, and a
// cut marker.
var v3Hello = ints(3, 8, 3, 0, 0, 8, 0, 0)

// v4Hello is version 4's hello, laid out as this build's: N, shard, range.
var v4Hello = ints(4, 8, 1, 4, 8)

func TestHandshakeRoundTrip(t *testing.T) {
	for _, shard := range []int{0, 3, AnyShard} {
		got, err := DecodeHandshake(AppendHandshake(nil, shard))
		if err != nil || got != shard {
			t.Fatalf("handshake round trip: %d -> %d %v", shard, got, err)
		}
	}
	if _, err := DecodeHandshake([]byte{3, 1}); err == nil {
		t.Fatal("garbage handshake accepted")
	}
	if _, err := DecodeHandshake(ints(Version, -7)); err == nil {
		t.Fatal("negative non-AnyShard shard accepted")
	}
	// Another version is refused naming both: the [1,2] range of older
	// builds (three ints), version 3's and version 4's two ints and a later
	// version's.
	for _, old := range [][]byte{ints(1, 2, 0), ints(3, 0), ints(4, 1), ints(Version+1, 0)} {
		_, err := DecodeHandshake(old)
		if err == nil || !strings.Contains(err.Error(), "this build speaks 5") {
			t.Fatalf("handshake %v: %v, want a version refusal", old, err)
		}
	}
}

// wideBatch is a large round: 600 messages among 8 nodes with wide
// F-values, over 4 KiB encoded.
func wideBatch() []sim.GlobalMsg {
	ms := make([]sim.GlobalMsg, 600)
	for i := range ms {
		f := int64(i) << 33
		ms[i] = sim.GlobalMsg{Src: i % 8, Dst: 7 - i%8, Kind: sim.Kind(i % 5), F0: f, F1: -f, F2: f + 1, F3: int64(i) - 300}
	}
	return ms
}

// FuzzDistWire feeds arbitrary bytes to every decoder in the package
// (none may panic or over-allocate) and, when a frame does decode,
// re-encodes and re-decodes it to assert the codec round-trips.
func FuzzDistWire(f *testing.F) {
	f.Add(AppendFrame(nil, Frame{Type: FrameShutdown}))
	f.Add(AppendFrame(nil, Frame{Type: FrameJoin, Shard: 1, Payload: AppendHandshake(nil, 1)}))
	f.Add(AppendFrame(nil, Frame{Type: FrameJoin, Shard: 0, Payload: AppendHandshake(nil, AnyShard)}))
	f.Add(AppendFrame(nil, Frame{Type: FrameJoin, Shard: 0, Payload: ints(1, 2, 0)}))
	f.Add(AppendFrame(nil, Frame{
		Type: FrameRound, Round: 3, Shard: 0,
		Payload: AppendMsgs(nil, []sim.GlobalMsg{{Src: 1, Dst: 2, Kind: 3, F0: -9}}),
	}))
	f.Add(AppendFrame(nil, Frame{
		Type: FrameRoundReply, Round: 3, Shard: 0,
		Payload: AppendMsgs(nil, []sim.GlobalMsg{{Src: 1, Dst: 2}}),
	}))
	f.Add(AppendFrame(nil, Frame{Type: FrameRound, Round: 4, Payload: AppendMsgs(nil, wideBatch())}))
	f.Add(AppendFrame(nil, Frame{
		Type:    FrameHello,
		Payload: AppendHello(nil, Hello{N: 8, Shard: 1, Lo: 4, Hi: 8}),
	}))
	f.Add(AppendFrame(nil, Frame{Type: FrameHello, Payload: windowedHello}))
	f.Add(AppendFrame(nil, Frame{Type: FrameHello, Payload: v1Hello}))
	f.Add(AppendFrame(nil, Frame{Type: FrameHello, Payload: v3Hello}))
	f.Add(AppendFrame(nil, Frame{Type: FrameHello, Payload: v4Hello}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x03}) // huge length prefix, no body
	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := DecodeFrame(data)
		if err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("consumed %d of %d", n, len(data))
			}
			re := AppendFrame(nil, frame)
			back, _, err := DecodeFrame(re)
			if err != nil {
				t.Fatalf("re-decode of re-encoded frame failed: %v", err)
			}
			if back.Type != frame.Type || back.Round != frame.Round || back.Shard != frame.Shard ||
				!bytes.Equal(back.Payload, frame.Payload) {
				t.Fatalf("re-encode round trip changed the frame: %+v vs %+v", frame, back)
			}
		}
		// The payload decoders must never panic on arbitrary bytes.
		DecodeMsgs(data)
		DecodeHello(data)
		DecodeHandshake(data)
		ReadFrame(bytes.NewReader(data))
	})
}
