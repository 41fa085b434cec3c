// Package wire is the framing layer of the distributed round engine: it
// encodes the coordinator/worker protocol of internal/dist as
// self-delimiting, checksummed frames over any byte stream.
//
// Every frame is laid out as
//
//	u32 LE  length    bytes after this field (min 12, max MaxFrameLen)
//	u64 LE  checksum  FNV-64a over everything after this field
//	u8      type      FrameType
//	u8      flags     reserved, must be 0
//	uvarint round     round number the frame belongs to (0 for control)
//	uvarint shard     shard id the frame addresses or originates from
//	bytes   payload   type-specific body (see batch.go)
//
// The length prefix is validated against MaxFrameLen — and, when decoding
// from a buffer, against the bytes actually present — BEFORE any
// allocation, so a corrupt or hostile prefix can never drive a huge
// allocation. The payload travels as it is; the checksum covers it. The
// flags byte stays in the layout, reserved, so an older build's Join or
// Hello still parses far enough to be refused by its version.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
)

// Version is the one protocol version this build speaks: the lockstep
// protocol (one round in flight per worker, a one-reply cache) with a 5-int
// Hello, a reply that is the sorted batch alone, raw frame payloads and
// row-wise message batches. The Join, Hello and HelloAck payloads each lead
// with it, and their decoders refuse any other version, naming both, before
// reading the rest. Older builds spoke 4 (payloads of 4 KiB and more
// entropy-coded, batches laid out column-wise), 3 (an 8-int Hello carrying a
// receive cap and a cut, a reply leading with the worker's counts) and 1 (a
// 9-int Hello carrying a liveness-beacon period), and advertised the range
// [1,2]; all are refused.
const Version = 5

// MaxFrameLen bounds the length prefix: no frame body may exceed 64 MiB.
// The bound exists so length validation can run before allocation.
const MaxFrameLen = 1 << 26

// minFrameLen is the smallest well-formed body: checksum (8) + type +
// flags + one-byte round + one-byte shard.
const minFrameLen = 12

// maxUvarintField bounds the round and shard uvarints so their int
// conversion cannot overflow on any platform.
const maxUvarintField = 1 << 40

// FrameType tags a frame's protocol meaning.
type FrameType uint8

// The protocol's frame types. Join is the worker's first frame on an
// accepted connection (its protocol version and shard pinning);
// Hello/HelloAck is the per-connection configuration handshake; Round/
// RoundReply carry one round's staged message batches; Shutdown ends a
// worker; Error reports a worker-side protocol failure. Type 6 is retired
// (it was a liveness beacon), so the others keep their values.
const (
	FrameJoin FrameType = 1 + iota
	FrameHello
	FrameHelloAck
	FrameRound
	FrameRoundReply
	_
	FrameShutdown
	FrameError
)

var frameNames = [...]string{FrameJoin: "join", FrameHello: "hello", FrameHelloAck: "hello-ack",
	FrameRound: "round", FrameRoundReply: "round-reply", FrameShutdown: "shutdown", FrameError: "error"}

// String names the frame type for error messages.
func (t FrameType) String() string {
	if int(t) < len(frameNames) && frameNames[t] != "" {
		return frameNames[t]
	}
	return fmt.Sprintf("type-%d", uint8(t))
}

// Frame is one decoded protocol frame.
type Frame struct {
	Type    FrameType
	Round   int
	Shard   int
	Payload []byte
}

// ErrMalformed marks a frame that fails structural validation: a length
// prefix out of bounds or beyond the buffer, a checksum mismatch, or an
// undecodable body.
var ErrMalformed = errors.New("wire: malformed frame")

// AppendFrame encodes f and appends it to dst, returning the extended
// slice. Round and Shard must be non-negative.
func AppendFrame(dst []byte, f Frame) []byte {
	if f.Round < 0 || f.Shard < 0 {
		panic(fmt.Sprintf("wire: negative frame field (round %d, shard %d)", f.Round, f.Shard))
	}
	var head [2 + 2*binary.MaxVarintLen64]byte
	head[0] = byte(f.Type)
	hn := 2
	hn += binary.PutUvarint(head[hn:], uint64(f.Round))
	hn += binary.PutUvarint(head[hn:], uint64(f.Shard))

	bodyLen := 8 + hn + len(f.Payload)
	if bodyLen > MaxFrameLen {
		panic(fmt.Sprintf("wire: frame body %d bytes exceeds MaxFrameLen", bodyLen))
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bodyLen))
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // checksum placeholder
	dst = append(dst, head[:hn]...)
	dst = append(dst, f.Payload...)

	h := fnv.New64a()
	h.Write(dst[start+12:])
	binary.LittleEndian.PutUint64(dst[start+4:start+12], h.Sum64())
	return dst
}

// ReadFrame reads exactly one frame from r into a buffer of its own; see
// ReadFrameInto.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := ReadFrameInto(r, nil)
	return f, err
}

// ReadFrameInto reads exactly one frame from r into buf, growing it as
// needed, and returns the frame and the buffer for the next call. The length
// prefix is bounded by MaxFrameLen before the buffer grows; the frame's
// payload is a slice of buf, valid until buf is read into again. Reads are
// plain (no buffering beyond the frame), so a caller alternating frames with
// other readers of the same stream stays in sync.
func ReadFrameInto(r io.Reader, buf []byte) (Frame, []byte, error) {
	buf = slices.Grow(buf[:0], 4)[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, err
	}
	bodyLen := binary.LittleEndian.Uint32(buf)
	if bodyLen < minFrameLen || bodyLen > MaxFrameLen {
		return Frame{}, buf, fmt.Errorf("%w: length prefix %d outside [%d, %d]",
			ErrMalformed, bodyLen, minFrameLen, MaxFrameLen)
	}
	buf = slices.Grow(buf[:0], int(bodyLen))[:bodyLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, fmt.Errorf("%w: truncated body: %v", ErrMalformed, err)
	}
	f, err := parseBody(buf)
	return f, buf, err
}

// DecodeFrame decodes one frame from the front of data, returning the
// frame and the number of bytes consumed. A length prefix larger than the
// remaining buffer is rejected before anything is sliced or allocated. The
// frame owns its payload: data may be reused once DecodeFrame returns.
func DecodeFrame(data []byte) (Frame, int, error) {
	if len(data) < 4 {
		return Frame{}, 0, fmt.Errorf("%w: short buffer", ErrMalformed)
	}
	bodyLen := binary.LittleEndian.Uint32(data[:4])
	if bodyLen < minFrameLen || bodyLen > MaxFrameLen {
		return Frame{}, 0, fmt.Errorf("%w: length prefix %d outside [%d, %d]",
			ErrMalformed, bodyLen, minFrameLen, MaxFrameLen)
	}
	if uint64(bodyLen) > uint64(len(data)-4) {
		return Frame{}, 0, fmt.Errorf("%w: length prefix %d exceeds %d remaining bytes",
			ErrMalformed, bodyLen, len(data)-4)
	}
	f, err := parseBody(bytes.Clone(data[4 : 4+bodyLen]))
	if err != nil {
		return Frame{}, 0, err
	}
	return f, 4 + int(bodyLen), nil
}

// parseBody validates the checksum and decodes the header of one frame body
// (everything after the length prefix); the payload is a slice of body.
func parseBody(body []byte) (Frame, error) {
	h := fnv.New64a()
	h.Write(body[8:])
	if want := binary.LittleEndian.Uint64(body[:8]); want != h.Sum64() {
		return Frame{}, fmt.Errorf("%w: checksum mismatch", ErrMalformed)
	}
	if body[9] != 0 {
		return Frame{}, fmt.Errorf("%w: reserved flags byte %#02x, want 0", ErrMalformed, body[9])
	}
	pos := 10
	round, n := binary.Uvarint(body[pos:])
	if n <= 0 || round > maxUvarintField {
		return Frame{}, fmt.Errorf("%w: bad round field", ErrMalformed)
	}
	pos += n
	shard, n := binary.Uvarint(body[pos:])
	if n <= 0 || shard > maxUvarintField {
		return Frame{}, fmt.Errorf("%w: bad shard field", ErrMalformed)
	}
	pos += n
	return Frame{Type: FrameType(body[8]), Round: int(round), Shard: int(shard), Payload: body[pos:]}, nil
}
