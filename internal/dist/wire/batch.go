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
// stream.
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
	ms, pos, err := decodeMsgSections(data, 0)
	if err != nil {
		return nil, err
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after message batch", ErrMalformed, len(data)-pos)
	}
	return ms, nil
}

// decodeMsgSections decodes the seven message columns starting at pos and
// returns the batch plus the position after it.
func decodeMsgSections(data []byte, pos int) ([]sim.GlobalMsg, int, error) {
	var cols [7][]int64
	for c := range cols {
		sec, next, err := nextSection(data, pos)
		if err != nil {
			return nil, 0, err
		}
		cols[c], err = persist.UnpackInt64s(sec)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: message column %d: %v", ErrMalformed, c, err)
		}
		if len(cols[c]) != len(cols[0]) {
			return nil, 0, fmt.Errorf("%w: message column %d has %d entries, want %d",
				ErrMalformed, c, len(cols[c]), len(cols[0]))
		}
		pos = next
	}
	n := len(cols[0])
	if n > maxBatchMsgs {
		return nil, 0, fmt.Errorf("%w: message batch of %d exceeds bound", ErrMalformed, n)
	}
	ms := make([]sim.GlobalMsg, n)
	for i := range ms {
		src, dstID, kind := cols[0][i], cols[1][i], cols[2][i]
		if src < 0 || src > maxNodeID || dstID < 0 || dstID > maxNodeID {
			return nil, 0, fmt.Errorf("%w: message %d has endpoint out of range (src %d, dst %d)",
				ErrMalformed, i, src, dstID)
		}
		if kind < 0 || kind > int64(^uint16(0)) {
			return nil, 0, fmt.Errorf("%w: message %d kind %d outside uint16", ErrMalformed, i, kind)
		}
		ms[i] = sim.GlobalMsg{
			Src: int(src), Dst: int(dstID), Kind: sim.Kind(kind),
			F0: cols[3][i], F1: cols[4][i], F2: cols[5][i], F3: cols[6][i],
		}
	}
	return ms, pos, nil
}

// RoundStats is the per-shard accounting a worker computes while sorting
// one round's batch; the coordinator folds it into sim.DistRoundStats.
// ViolDst is -1 when no destination exceeded the strict receive cap.
type RoundStats struct {
	Msgs      int64
	CutMsgs   int64
	MaxRecv   int64
	ViolDst   int64
	ViolCount int64
}

// AppendReply appends a RoundReply payload: the stats section followed by
// the delivery-ordered message columns.
func AppendReply(dst []byte, ms []sim.GlobalMsg, st RoundStats) []byte {
	stats := persist.PackInt64s([]int64{st.Msgs, st.CutMsgs, st.MaxRecv, st.ViolDst, st.ViolCount})
	dst = appendSection(dst, stats)
	return AppendMsgs(dst, ms)
}

// DecodeReply decodes a full RoundReply payload.
func DecodeReply(data []byte) ([]sim.GlobalMsg, RoundStats, error) {
	sec, pos, err := nextSection(data, 0)
	if err != nil {
		return nil, RoundStats{}, err
	}
	vals, err := persist.UnpackInt64s(sec)
	if err != nil || len(vals) != 5 {
		return nil, RoundStats{}, fmt.Errorf("%w: bad reply stats section", ErrMalformed)
	}
	st := RoundStats{Msgs: vals[0], CutMsgs: vals[1], MaxRecv: vals[2], ViolDst: vals[3], ViolCount: vals[4]}
	ms, pos, err := decodeMsgSections(data, pos)
	if err != nil {
		return nil, RoundStats{}, err
	}
	if pos != len(data) {
		return nil, RoundStats{}, fmt.Errorf("%w: %d trailing bytes after reply", ErrMalformed, len(data)-pos)
	}
	if st.Msgs != int64(len(ms)) {
		return nil, RoundStats{}, fmt.Errorf("%w: reply stats claim %d messages, batch has %d",
			ErrMalformed, st.Msgs, len(ms))
	}
	return ms, st, nil
}

// Hello is the coordinator's per-connection configuration handshake: the
// static facts a worker needs to sort and validate every round of its
// shard.
type Hello struct {
	N                int
	LogN             int
	Shard            int
	Lo, Hi           int    // the shard's node range [Lo, Hi)
	StrictRecvFactor int    // 0: no receive cap enforcement
	Cut              []bool // global-edge cut marks, nil when unused
}

// AppendHello appends the Hello payload: a fixed section of 8 ints, Version
// first, plus an optional PackSorted section listing the true indices of Cut.
func AppendHello(dst []byte, h Hello) []byte {
	hasCut := int64(0)
	if h.Cut != nil {
		hasCut = 1
	}
	ints := []int64{
		Version, int64(h.N), int64(h.LogN), int64(h.Shard),
		int64(h.Lo), int64(h.Hi), int64(h.StrictRecvFactor), hasCut,
	}
	dst = appendSection(dst, persist.PackInt64s(ints))
	if h.Cut != nil {
		idx := make([]int, 0, len(h.Cut))
		for i, c := range h.Cut {
			if c {
				idx = append(idx, i)
			}
		}
		dst = appendSection(dst, persist.PackSorted(idx))
	}
	return dst
}

// DecodeHello decodes a full Hello payload.
func DecodeHello(data []byte) (Hello, error) {
	vals, pos, err := versionedSection(data, 8, "hello")
	if err != nil {
		return Hello{}, err
	}
	for i, v := range vals[1:7] {
		if v < 0 || v > maxNodeID {
			return Hello{}, fmt.Errorf("%w: hello field %d out of range (%d)", ErrMalformed, i+1, v)
		}
	}
	h := Hello{
		N: int(vals[1]), LogN: int(vals[2]), Shard: int(vals[3]),
		Lo: int(vals[4]), Hi: int(vals[5]), StrictRecvFactor: int(vals[6]),
	}
	if vals[7] != 0 {
		sec, next, err := nextSection(data, pos)
		if err != nil {
			return Hello{}, err
		}
		pos = next
		idx, err := persist.UnpackSorted(sec)
		if err != nil {
			return Hello{}, fmt.Errorf("%w: bad hello cut section: %v", ErrMalformed, err)
		}
		h.Cut = make([]bool, h.N)
		for _, i := range idx {
			if i < 0 || i >= h.N {
				return Hello{}, fmt.Errorf("%w: cut index %d outside n=%d", ErrMalformed, i, h.N)
			}
			h.Cut[i] = true
		}
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
