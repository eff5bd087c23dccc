package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/explore"
)

// The barrier's bulk payloads — one shard's pending metadata (the
// pendmeta response) and one shard's gid list (the commit and keys
// requests) — travel packed, never as JSON arrays. Both layouts open
// with a magic, a version byte and the entry count, so an absent,
// truncated or old-format payload is an ErrBadPayload, never an empty
// list:
//
//	pending metadata: "CCPM" u8 version  uvarint count
//	                  then per entry, in strictly increasing pos order:
//	                  uvarint Δpos  varint Δparent  uvarint len(sel)  sel
//	gid list:         "CCGL" u8 version  uvarint count
//	                  then per gid, strictly increasing from −1:
//	                  uvarint Δgid
//
// Deltas are taken from the previous entry (pos from 0, parent from −1,
// gid from −1). Within a shard pos is sorted and parents follow pos,
// so almost every delta fits one or two bytes.
const wireVersion = 1

var (
	metaMagic = [4]byte{'C', 'C', 'P', 'M'}
	gidsMagic = [4]byte{'C', 'C', 'G', 'L'}
)

// ErrBadPayload classifies every payload decode failure: a missing,
// truncated, corrupt or other-version payload. A peer and coordinator
// that disagree on the format fail the barrier instead of reading each
// other's bytes as "nothing pending".
var ErrBadPayload = errors.New("cluster: bad barrier payload")

func badPayload(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadPayload, fmt.Sprintf(format, args...))
}

func appendHeader(dst []byte, magic [4]byte, count int) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, wireVersion)
	return binary.AppendUvarint(dst, uint64(count))
}

// readHeader checks the magic and version and returns the entry count,
// bounded by the bytes left (every entry takes at least minEntry) so a
// corrupt count cannot drive a huge allocation.
func readHeader(b []byte, magic [4]byte, what string, minEntry int) (int, []byte, error) {
	if len(b) == 0 {
		return 0, nil, badPayload("missing %s payload", what)
	}
	if len(b) < len(magic)+1 || [4]byte(b[:4]) != magic {
		return 0, nil, badPayload("not a %s payload", what)
	}
	if v := b[4]; v != wireVersion {
		return 0, nil, badPayload("%s payload version %d, want %d", what, v, wireVersion)
	}
	b = b[5:]
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, nil, badPayload("%s payload: bad entry count", what)
	}
	b = b[k:]
	if n > uint64(len(b)/minEntry) {
		return 0, nil, badPayload("%s payload: %d entries cannot fit %d bytes", what, n, len(b))
	}
	return int(n), b, nil
}

// AppendMeta appends the packed form of one shard's pending metadata,
// which must be in strictly increasing pos order (PendMeta's order).
func AppendMeta(dst []byte, meta []explore.PendMeta) []byte {
	dst = appendHeader(dst, metaMagic, len(meta))
	var pos uint64
	parent := int64(-1)
	for _, m := range meta {
		dst = binary.AppendUvarint(dst, m.Pos-pos)
		dst = binary.AppendVarint(dst, int64(m.Parent)-parent)
		dst = binary.AppendUvarint(dst, uint64(len(m.Sel)))
		dst = append(dst, m.Sel...)
		pos, parent = m.Pos, int64(m.Parent)
	}
	return dst
}

// DecodeMeta is the inverse of AppendMeta. The returned selections
// share one copy of b, so b may be reused once DecodeMeta returns.
func DecodeMeta(b []byte) ([]explore.PendMeta, error) {
	n, b, err := readHeader(b, metaMagic, "pending-metadata", 3)
	if err != nil {
		return nil, err
	}
	body := string(b)
	r := varintReader{b: b}
	meta := make([]explore.PendMeta, n)
	var pos uint64
	parent := int64(-1)
	for i := range meta {
		dpos, dpar, selLen := r.uvarint(), r.varint(), r.uvarint()
		if r.bad {
			return nil, badPayload("pending-metadata entry %d: bad varint", i)
		}
		if i > 0 && dpos == 0 || pos+dpos < pos {
			return nil, badPayload("pending-metadata entry %d: pos not strictly increasing", i)
		}
		pos += dpos
		// |dpar| ≤ 2³² keeps the sum exact; the range check does the rest.
		if dpar > 1<<32 || dpar < -1<<32 || parent+dpar < -1 || parent+dpar > math.MaxInt32 {
			return nil, badPayload("pending-metadata entry %d: parent out of range", i)
		}
		parent += dpar
		if selLen > uint64(len(r.b)) {
			return nil, badPayload("pending-metadata entry %d: truncated selection", i)
		}
		off := len(body) - len(r.b)
		r.b = r.b[selLen:]
		meta[i] = explore.PendMeta{Pos: pos, Parent: int32(parent), Sel: body[off : off+int(selLen)]}
	}
	if len(r.b) != 0 {
		return nil, badPayload("%d trailing bytes after pending metadata", len(r.b))
	}
	return meta, nil
}

// AppendGids appends the packed form of a strictly increasing gid list
// (a shard's commit gids, or the sorted gids of a trace key fetch).
func AppendGids(dst []byte, gids []int32) []byte {
	dst = appendHeader(dst, gidsMagic, len(gids))
	prev := int64(-1)
	for _, g := range gids {
		dst = binary.AppendUvarint(dst, uint64(int64(g)-prev))
		prev = int64(g)
	}
	return dst
}

// DecodeGids is the inverse of AppendGids.
func DecodeGids(b []byte) ([]int32, error) {
	n, b, err := readHeader(b, gidsMagic, "gid-list", 1)
	if err != nil {
		return nil, err
	}
	r := varintReader{b: b}
	gids := make([]int32, n)
	prev := int64(-1)
	for i := range gids {
		d := r.uvarint()
		if r.bad || d == 0 || d > math.MaxInt32 || prev+int64(d) > math.MaxInt32 {
			return nil, badPayload("gid %d: bad varint or not strictly increasing within int32", i)
		}
		prev += int64(d)
		gids[i] = int32(prev)
	}
	if len(r.b) != 0 {
		return nil, badPayload("%d trailing bytes after gid list", len(r.b))
	}
	return gids, nil
}

// varintReader consumes varints from a payload; a malformed one sets
// bad (sticky) and reads as zero.
type varintReader struct {
	b   []byte
	bad bool
}

func (r *varintReader) uvarint() uint64 {
	v, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[k:]
	return v
}

func (r *varintReader) varint() int64 {
	v, k := binary.Varint(r.b)
	if k <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[k:]
	return v
}
