// Package wire is the framing layer of the distributed round engine: it
// encodes the coordinator/worker protocol of internal/dist as
// self-delimiting, checksummed frames over any byte stream.
//
// Every frame is laid out as
//
//	u32 LE  length    bytes after this field (min 12, max MaxFrameLen)
//	u64 LE  checksum  FNV-64a over everything after this field
//	u8      type      FrameType
//	u8      flags     bit 0: payload is flate-compressed
//	uvarint round     round number the frame belongs to (0 for control)
//	uvarint shard     shard id the frame addresses or originates from
//	bytes   payload   type-specific body (see batch.go)
//
// The length prefix is validated against MaxFrameLen — and, when decoding
// from a buffer, against the bytes actually present — BEFORE any
// allocation, so a corrupt or hostile prefix can never drive a huge
// allocation. The checksum covers the compressed bytes on the wire;
// payloads at or above compressThreshold are deflated with the same
// flate.BestSpeed setting the v2 snapshot cache uses, and kept raw when
// compression does not shrink them.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
)

// Version is the one protocol version this build speaks: the lockstep
// protocol (one round in flight per worker, a one-reply cache) with a 5-int
// Hello and a reply that is the sorted batch alone. The Join, Hello and
// HelloAck payloads each lead with it, and their decoders refuse any other
// version, naming both, before reading the rest. Older builds spoke 3 (an
// 8-int Hello carrying a receive cap and a cut, a reply leading with the
// worker's counts) and 1 (a 9-int Hello carrying a liveness-beacon period),
// and advertised the range [1,2]; all are refused.
const Version = 4

// MaxFrameLen bounds the length prefix: no frame body may exceed 64 MiB,
// compressed or decompressed. The bound exists so length validation can
// run before allocation.
const MaxFrameLen = 1 << 26

// minFrameLen is the smallest well-formed body: checksum (8) + type +
// flags + one-byte round + one-byte shard.
const minFrameLen = 12

// compressThreshold is the payload size at which AppendFrame attempts
// flate compression; staged message batches of large rounds cross it,
// control frames never do.
const compressThreshold = 4096

// maxUvarintField bounds the round and shard uvarints so their int
// conversion cannot overflow on any platform.
const maxUvarintField = 1 << 40

// flagCompressed marks a deflated payload.
const flagCompressed = 0x01

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

// Frame is one decoded protocol frame. Payload is the decompressed body.
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
// slice. Payloads at or above compressThreshold are flate-compressed when
// that shrinks them. Round and Shard must be non-negative.
func AppendFrame(dst []byte, f Frame) []byte {
	if f.Round < 0 || f.Shard < 0 {
		panic(fmt.Sprintf("wire: negative frame field (round %d, shard %d)", f.Round, f.Shard))
	}
	payload := f.Payload
	flags := byte(0)
	if len(payload) >= compressThreshold {
		if z := deflate(payload); len(z) < len(payload) {
			payload = z
			flags = flagCompressed
		}
	}

	var head [2 + 2*binary.MaxVarintLen64]byte
	head[0] = byte(f.Type)
	head[1] = flags
	hn := 2
	hn += binary.PutUvarint(head[hn:], uint64(f.Round))
	hn += binary.PutUvarint(head[hn:], uint64(f.Shard))

	bodyLen := 8 + hn + len(payload)
	if bodyLen > MaxFrameLen {
		panic(fmt.Sprintf("wire: frame body %d bytes exceeds MaxFrameLen", bodyLen))
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bodyLen))
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // checksum placeholder
	dst = append(dst, head[:hn]...)
	dst = append(dst, payload...)

	h := fnv.New64a()
	h.Write(dst[start+12:])
	binary.LittleEndian.PutUint64(dst[start+4:start+12], h.Sum64())
	return dst
}

// ReadFrame reads exactly one frame from r. The length prefix is bounded
// by MaxFrameLen before the body is allocated. Reads are plain (no
// buffering beyond the frame), so a caller alternating frames with other
// readers of the same stream stays in sync.
func ReadFrame(r io.Reader) (Frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return Frame{}, err
	}
	bodyLen := binary.LittleEndian.Uint32(lenBuf[:])
	if bodyLen < minFrameLen || bodyLen > MaxFrameLen {
		return Frame{}, fmt.Errorf("%w: length prefix %d outside [%d, %d]",
			ErrMalformed, bodyLen, minFrameLen, MaxFrameLen)
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, fmt.Errorf("%w: truncated body: %v", ErrMalformed, err)
	}
	return parseBody(body)
}

// DecodeFrame decodes one frame from the front of data, returning the
// frame and the number of bytes consumed. A length prefix larger than the
// remaining buffer is rejected before anything is sliced or allocated.
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
	f, err := parseBody(data[4 : 4+bodyLen])
	if err != nil {
		return Frame{}, 0, err
	}
	return f, 4 + int(bodyLen), nil
}

// parseBody validates the checksum and decodes the header and payload of
// one frame body (everything after the length prefix).
func parseBody(body []byte) (Frame, error) {
	h := fnv.New64a()
	h.Write(body[8:])
	if want := binary.LittleEndian.Uint64(body[:8]); want != h.Sum64() {
		return Frame{}, fmt.Errorf("%w: checksum mismatch", ErrMalformed)
	}
	f := Frame{Type: FrameType(body[8])}
	flags := body[9]
	if flags&^byte(flagCompressed) != 0 {
		return Frame{}, fmt.Errorf("%w: unknown flags %#02x", ErrMalformed, flags)
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
	f.Round = int(round)
	f.Shard = int(shard)
	payload := body[pos:]
	if flags&flagCompressed != 0 {
		raw, err := inflate(payload)
		if err != nil {
			return Frame{}, err
		}
		payload = raw
	}
	// Copy out of the read buffer so the frame owns its payload.
	f.Payload = append([]byte(nil), payload...)
	return f, nil
}

// deflate compresses data with the snapshot cache's flate setting.
func deflate(data []byte) []byte {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return data
	}
	if _, err := zw.Write(data); err != nil || zw.Close() != nil {
		return data
	}
	return buf.Bytes()
}

// inflate decompresses a flagCompressed payload, capping the expansion at
// MaxFrameLen so a deflate bomb cannot blow past the frame bound.
func inflate(data []byte) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(data))
	defer zr.Close()
	out, err := io.ReadAll(io.LimitReader(zr, MaxFrameLen+1))
	if err != nil {
		return nil, fmt.Errorf("%w: bad compressed payload: %v", ErrMalformed, err)
	}
	if len(out) > MaxFrameLen {
		return nil, fmt.Errorf("%w: compressed payload inflates past MaxFrameLen", ErrMalformed)
	}
	return out, nil
}
