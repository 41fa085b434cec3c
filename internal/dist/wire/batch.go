// Frame payload codecs: the type-specific bodies carried inside the
// frames of wire.go. Every multi-part payload is a sequence of
// uvarint-length-prefixed sections, each holding one persist varint
// stream (PackInt64s / PackSorted), because the persist decoders demand
// exact buffer consumption — the prefix lets each section be sliced to
// precisely its own bytes. Message batches are encoded column-wise (all
// Src values, then all Dst values, ...) so the zigzag varints see runs of
// small, similar numbers.
package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/persist"
	"repro/internal/sim"
)

// maxBatchMsgs bounds a decoded batch; with 7 columns of one varint byte
// minimum this is far beyond what a MaxFrameLen frame can carry, so it
// only guards against pathological decoded column lengths.
const maxBatchMsgs = 1 << 28

// maxNodeID bounds decoded Src/Dst values. Receivers re-validate against
// the actual shard range; this bound only keeps corrupt values from
// overflowing downstream int arithmetic.
const maxNodeID = 1 << 31

// AppendMsgs appends the column-wise encoding of ms to dst: seven
// sections (Src, Dst, Kind, F0..F3), each a length-prefixed PackInt64s
// stream. It is the payload of a Round frame (the shard's batch in staging
// order) and of its RoundReply (the same batch in delivery order).
func AppendMsgs(dst []byte, ms []sim.GlobalMsg) []byte {
	col := make([]int64, len(ms))
	for c := 0; c < 7; c++ {
		for i, m := range ms {
			switch c {
			case 0:
				col[i] = int64(m.Src)
			case 1:
				col[i] = int64(m.Dst)
			case 2:
				col[i] = int64(m.Kind)
			case 3:
				col[i] = m.F0
			case 4:
				col[i] = m.F1
			case 5:
				col[i] = m.F2
			default:
				col[i] = m.F3
			}
		}
		dst = appendSection(dst, persist.PackInt64s(col))
	}
	return dst
}

// DecodeMsgs decodes a full-buffer message batch written by AppendMsgs.
func DecodeMsgs(data []byte) ([]sim.GlobalMsg, error) {
	var cols [7][]int64
	pos := 0
	for c := range cols {
		sec, next, err := nextSection(data, pos)
		if err != nil {
			return nil, err
		}
		cols[c], err = persist.UnpackInt64s(sec)
		if err != nil {
			return nil, fmt.Errorf("%w: message column %d: %v", ErrMalformed, c, err)
		}
		if len(cols[c]) != len(cols[0]) {
			return nil, fmt.Errorf("%w: message column %d has %d entries, want %d",
				ErrMalformed, c, len(cols[c]), len(cols[0]))
		}
		pos = next
	}
	n := len(cols[0])
	if n > maxBatchMsgs {
		return nil, fmt.Errorf("%w: message batch of %d exceeds bound", ErrMalformed, n)
	}
	ms := make([]sim.GlobalMsg, n)
	for i := range ms {
		src, dstID, kind := cols[0][i], cols[1][i], cols[2][i]
		if src < 0 || src > maxNodeID || dstID < 0 || dstID > maxNodeID {
			return nil, fmt.Errorf("%w: message %d has endpoint out of range (src %d, dst %d)",
				ErrMalformed, i, src, dstID)
		}
		if kind < 0 || kind > int64(^uint16(0)) {
			return nil, fmt.Errorf("%w: message %d kind %d outside uint16", ErrMalformed, i, kind)
		}
		ms[i] = sim.GlobalMsg{
			Src: int(src), Dst: int(dstID), Kind: sim.Kind(kind),
			F0: cols[3][i], F1: cols[4][i], F2: cols[5][i], F3: cols[6][i],
		}
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after message batch", ErrMalformed, len(data)-pos)
	}
	return ms, nil
}

// Hello is the coordinator's per-connection configuration handshake: the
// shard a worker serves and its node range, against which every round's
// destinations are checked.
type Hello struct {
	N      int
	Shard  int
	Lo, Hi int // the shard's node range [Lo, Hi)
}

// AppendHello appends the Hello payload: one section of 5 ints, Version
// first.
func AppendHello(dst []byte, h Hello) []byte {
	ints := []int64{Version, int64(h.N), int64(h.Shard), int64(h.Lo), int64(h.Hi)}
	return appendSection(dst, persist.PackInt64s(ints))
}

// DecodeHello decodes a full Hello payload. A node range outside
// 0 <= Lo <= Hi <= N is malformed.
func DecodeHello(data []byte) (Hello, error) {
	vals, pos, err := versionedSection(data, 5, "hello")
	if err != nil {
		return Hello{}, err
	}
	for i, v := range vals[1:] {
		if v < 0 || v > maxNodeID {
			return Hello{}, fmt.Errorf("%w: hello field %d out of range (%d)", ErrMalformed, i+1, v)
		}
	}
	h := Hello{N: int(vals[1]), Shard: int(vals[2]), Lo: int(vals[3]), Hi: int(vals[4])}
	if h.Lo > h.Hi || h.Hi > h.N {
		return Hello{}, fmt.Errorf("%w: hello node range [%d,%d) outside n=%d", ErrMalformed, h.Lo, h.Hi, h.N)
	}
	if pos != len(data) {
		return Hello{}, fmt.Errorf("%w: %d trailing bytes after hello", ErrMalformed, len(data)-pos)
	}
	return h, nil
}

// AnyShard is the shard value a listen-mode worker announces when it has
// no pinned shard: the coordinator's connect list decides which shard the
// connection serves.
const AnyShard = -1

// AppendHandshake appends the Join / HelloAck payload: [Version, shard],
// the shard being AnyShard for an unpinned worker's Join.
func AppendHandshake(dst []byte, shard int) []byte {
	return appendSection(dst, persist.PackInt64s([]int64{Version, int64(shard)}))
}

// DecodeHandshake decodes a Join / HelloAck payload and returns the shard
// it claims.
func DecodeHandshake(data []byte) (int, error) {
	vals, pos, err := versionedSection(data, 2, "handshake")
	if err != nil {
		return 0, err
	}
	if pos != len(data) {
		return 0, fmt.Errorf("%w: trailing bytes after handshake", ErrMalformed)
	}
	if vals[1] < AnyShard || vals[1] > maxNodeID {
		return 0, fmt.Errorf("%w: handshake shard %d out of range", ErrMalformed, vals[1])
	}
	return int(vals[1]), nil
}

// versionedSection decodes the leading section of a Join, HelloAck or Hello
// payload: n ints, Version first. The layout is the version's, so another
// version is refused, naming both, before the length is checked.
func versionedSection(data []byte, n int, what string) ([]int64, int, error) {
	sec, pos, err := nextSection(data, 0)
	if err != nil {
		return nil, 0, err
	}
	vals, err := persist.UnpackInt64s(sec)
	if err != nil || len(vals) == 0 {
		return nil, 0, fmt.Errorf("%w: bad %s section", ErrMalformed, what)
	}
	if vals[0] != Version {
		return nil, 0, fmt.Errorf("wire: %s at protocol version %d, this build speaks %d", what, vals[0], Version)
	}
	if len(vals) != n {
		return nil, 0, fmt.Errorf("%w: bad %s section", ErrMalformed, what)
	}
	return vals, pos, nil
}

// appendSection appends one uvarint-length-prefixed byte section.
func appendSection(dst, sec []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(sec)))
	return append(dst, sec...)
}

// nextSection slices the length-prefixed section starting at pos,
// validating the prefix against the remaining buffer before slicing.
func nextSection(data []byte, pos int) ([]byte, int, error) {
	l, n := binary.Uvarint(data[pos:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: bad section length prefix", ErrMalformed)
	}
	if l > uint64(len(data)-pos-n) {
		return nil, 0, fmt.Errorf("%w: section length %d exceeds %d remaining bytes",
			ErrMalformed, l, len(data)-pos-n)
	}
	start := pos + n
	return data[start : start+int(l)], start + int(l), nil
}
