// Frame payload codecs: the type-specific bodies carried inside the
// frames of wire.go. A message batch is a uvarint count followed by one row
// per message: Src, Dst and Kind as uvarints, F0..F3 as zigzag varints. The
// handshake payloads (Join, Hello, HelloAck) are one uvarint-length-prefixed
// section holding a persist varint stream, Version first, because that
// layout is shared with every older build, which must still be refused by
// version.
package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/persist"
	"repro/internal/sim"
)

// minMsgLen is the fewest bytes a message row takes: seven one-byte
// varints.
const minMsgLen = 7

// maxNodeID bounds decoded Src/Dst values. Receivers re-validate against
// the actual shard range; this bound only keeps corrupt values from
// overflowing downstream int arithmetic.
const maxNodeID = 1 << 31

// AppendMsgs appends the row-wise encoding of ms to dst: a uvarint count,
// then each message's Src, Dst and Kind as uvarints and F0..F3 as zigzag
// varints. It is the payload of a Round frame (the shard's batch in staging
// order) and of its RoundReply (the same batch in delivery order).
func AppendMsgs(dst []byte, ms []sim.GlobalMsg) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ms)))
	for _, m := range ms {
		dst = binary.AppendUvarint(dst, uint64(m.Src))
		dst = binary.AppendUvarint(dst, uint64(m.Dst))
		dst = binary.AppendUvarint(dst, uint64(m.Kind))
		dst = binary.AppendVarint(dst, m.F0)
		dst = binary.AppendVarint(dst, m.F1)
		dst = binary.AppendVarint(dst, m.F2)
		dst = binary.AppendVarint(dst, m.F3)
	}
	return dst
}

// DecodeMsgs decodes a full-buffer message batch written by AppendMsgs
// into a slice of its own; see AppendDecodedMsgs.
func DecodeMsgs(data []byte) ([]sim.GlobalMsg, error) {
	ms, err := AppendDecodedMsgs(nil, data)
	if err != nil {
		return nil, err
	}
	return ms, nil
}

// AppendDecodedMsgs decodes a full-buffer message batch written by
// AppendMsgs and appends its messages to dst, returning the extended slice;
// on error it returns dst at its original length. A count the remaining
// bytes cannot hold is refused before dst grows.
func AppendDecodedMsgs(dst []sim.GlobalMsg, data []byte) ([]sim.GlobalMsg, error) {
	n, pos := binary.Uvarint(data)
	if pos <= 0 {
		return dst, fmt.Errorf("%w: bad message count", ErrMalformed)
	}
	if n > uint64(len(data)-pos)/minMsgLen {
		return dst, fmt.Errorf("%w: %d messages cannot fit in %d bytes", ErrMalformed, n, len(data)-pos)
	}
	start := len(dst)
	dst = slices.Grow(dst, int(n))[:start+int(n)]
	ms := dst[start:]
	for i := range ms {
		var ends [3]uint64
		for j := range ends {
			v, k := binary.Uvarint(data[pos:])
			if k <= 0 {
				return dst[:start], fmt.Errorf("%w: message %d truncated", ErrMalformed, i)
			}
			ends[j], pos = v, pos+k
		}
		var fs [4]int64
		for j := range fs {
			v, k := binary.Varint(data[pos:])
			if k <= 0 {
				return dst[:start], fmt.Errorf("%w: message %d truncated", ErrMalformed, i)
			}
			fs[j], pos = v, pos+k
		}
		src, dstID, kind := ends[0], ends[1], ends[2]
		if src > maxNodeID || dstID > maxNodeID {
			return dst[:start], fmt.Errorf("%w: message %d has endpoint out of range (src %d, dst %d)",
				ErrMalformed, i, src, dstID)
		}
		if kind > uint64(^uint16(0)) {
			return dst[:start], fmt.Errorf("%w: message %d kind %d outside uint16", ErrMalformed, i, kind)
		}
		ms[i] = sim.GlobalMsg{Src: int(src), Dst: int(dstID), Kind: sim.Kind(kind), F0: fs[0], F1: fs[1], F2: fs[2], F3: fs[3]}
	}
	if pos != len(data) {
		return dst[:start], fmt.Errorf("%w: %d trailing bytes after message batch", ErrMalformed, len(data)-pos)
	}
	return dst, nil
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
