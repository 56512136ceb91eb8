// Package snmp implements a compact SNMPv1-like management protocol over
// UDP: a BER codec, the RFC 1067 message shapes (Get, GetNext, Set,
// Response), an agent with community-based access control, view subtrees
// and per-community minimum query intervals, and a client.
//
// It is the substrate for NMSL's prescriptive aspect (paper section 5):
// configuration generators produce agent configuration from a consistent
// specification and ship it to running agents — "initiating a connection
// to a network management process on each affected network element ...
// and sending, via the normal network management protocol, the
// configuration information". The agent enforces exactly the three things
// NMSL configures: which principal may query (community/domain), what
// data (view subtree and access mode), and how often (minimum interval —
// NMSL's frequency clauses).
package snmp

import (
	"errors"
	"fmt"

	"nmsl/internal/mib"
)

// BER/ASN.1 tags used by the protocol (RFC 1065/1067 subset).
const (
	TagInteger   = 0x02
	TagOctets    = 0x04
	TagNull      = 0x05
	TagOID       = 0x06
	TagSequence  = 0x30
	TagIPAddress = 0x40
	TagCounter   = 0x41
	TagGauge     = 0x42
	TagTimeTicks = 0x43
	TagOpaque    = 0x44

	// PDU tags (context class, constructed).
	TagGetRequest     = 0xA0
	TagGetNextRequest = 0xA1
	TagGetResponse    = 0xA2
	TagSetRequest     = 0xA3
)

// Value is a decoded BER value. Exactly one payload field is meaningful,
// selected by Tag.
type Value struct {
	Tag byte
	// Int carries INTEGER, Counter, Gauge and TimeTicks payloads.
	Int int64
	// Bytes carries OCTET STRING, Opaque and IpAddress payloads.
	Bytes []byte
	// OID carries OBJECT IDENTIFIER payloads.
	OID mib.OID
	// Seq carries constructed (SEQUENCE, PDU) payloads.
	Seq []Value
}

// Common constructors.

// Int64 returns an INTEGER value.
func Int64(v int64) Value { return Value{Tag: TagInteger, Int: v} }

// Octets returns an OCTET STRING value.
func Octets(b []byte) Value { return Value{Tag: TagOctets, Bytes: b} }

// Str returns an OCTET STRING value from a string.
func Str(s string) Value { return Value{Tag: TagOctets, Bytes: []byte(s)} }

// Null returns a NULL value.
func Null() Value { return Value{Tag: TagNull} }

// OIDValue returns an OBJECT IDENTIFIER value.
func OIDValue(o mib.OID) Value { return Value{Tag: TagOID, OID: o.Clone()} }

// Seq returns a SEQUENCE value.
func Seq(vals ...Value) Value { return Value{Tag: TagSequence, Seq: vals} }

// Opaque returns an Opaque value.
func Opaque(b []byte) Value { return Value{Tag: TagOpaque, Bytes: b} }

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Tag != o.Tag {
		return false
	}
	switch v.Tag {
	case TagInteger, TagCounter, TagGauge, TagTimeTicks:
		return v.Int == o.Int
	case TagOctets, TagOpaque, TagIPAddress:
		return string(v.Bytes) == string(o.Bytes)
	case TagNull:
		return true
	case TagOID:
		return v.OID.Compare(o.OID) == 0
	default:
		if len(v.Seq) != len(o.Seq) {
			return false
		}
		for i := range v.Seq {
			if !v.Seq[i].Equal(o.Seq[i]) {
				return false
			}
		}
		return true
	}
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Tag {
	case TagInteger:
		return fmt.Sprintf("INTEGER %d", v.Int)
	case TagCounter:
		return fmt.Sprintf("Counter %d", v.Int)
	case TagGauge:
		return fmt.Sprintf("Gauge %d", v.Int)
	case TagTimeTicks:
		return fmt.Sprintf("TimeTicks %d", v.Int)
	case TagOctets:
		return fmt.Sprintf("OCTETS %q", v.Bytes)
	case TagOpaque:
		return fmt.Sprintf("Opaque(%d bytes)", len(v.Bytes))
	case TagIPAddress:
		if len(v.Bytes) == 4 {
			return fmt.Sprintf("IpAddress %d.%d.%d.%d", v.Bytes[0], v.Bytes[1], v.Bytes[2], v.Bytes[3])
		}
		return fmt.Sprintf("IpAddress %x", v.Bytes)
	case TagNull:
		return "NULL"
	case TagOID:
		return "OID " + v.OID.String()
	default:
		return fmt.Sprintf("constructed(0x%02x, %d elems)", v.Tag, len(v.Seq))
	}
}

// isConstructed reports whether a tag carries nested values.
func isConstructed(tag byte) bool { return tag&0x20 != 0 }

// headerLen returns the size of a tag and definite length in front of a
// body of n bytes: two, and in the long form a byte more for each of n's.
func headerLen(n int) int {
	l := 2
	for m := n; n >= 0x80 && m > 0; m >>= 8 {
		l++
	}
	return l
}

// appendLength appends a BER definite length.
func appendLength(dst []byte, n int) []byte {
	if n < 0x80 {
		return append(dst, byte(n))
	}
	l := headerLen(n) - 2
	dst = append(dst, 0x80|byte(l))
	for i := l - 1; i >= 0; i-- {
		dst = append(dst, byte(n>>(8*i)))
	}
	return dst
}

// intLen returns the size of v's minimal two's-complement encoding.
func intLen(v int64) int {
	n := 8
	for n > 1 {
		top := byte(v >> ((n - 1) * 8))
		next := byte(v >> ((n - 2) * 8))
		if (top == 0x00 && next&0x80 == 0) || (top == 0xFF && next&0x80 == 0x80) {
			n--
			continue
		}
		break
	}
	return n
}

// appendInt appends a two's-complement big-endian integer body.
func appendInt(dst []byte, v int64) []byte {
	for i := intLen(v) - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(i*8)))
	}
	return dst
}

// oidLen returns the size of oid's body bytes (X.690 packed form), or the
// reason it has none.
func oidLen(oid mib.OID) (int, error) {
	if len(oid) < 2 {
		return 0, fmt.Errorf("snmp: OID %v too short to encode", oid)
	}
	if oid[0] > 2 || oid[1] >= 40 {
		return 0, fmt.Errorf("snmp: OID %v has invalid first arcs", oid)
	}
	n := 1
	for _, arc := range oid[2:] {
		if arc < 0 {
			return 0, fmt.Errorf("snmp: negative OID arc %d", arc)
		}
		n += base128Len(uint64(arc))
	}
	return n, nil
}

// appendOID appends the body bytes of an OID oidLen accepted.
func appendOID(dst []byte, oid mib.OID) []byte {
	dst = append(dst, byte(oid[0]*40+oid[1]))
	for _, arc := range oid[2:] {
		dst = appendBase128(dst, uint64(arc))
	}
	return dst
}

// base128Len returns how many 7-bit groups v takes.
func base128Len(v uint64) int {
	n := 1
	for v >>= 7; v > 0; v >>= 7 {
		n++
	}
	return n
}

func appendBase128(dst []byte, v uint64) []byte {
	for i := base128Len(v) - 1; i > 0; i-- {
		dst = append(dst, byte(v>>(7*uint(i)))|0x80)
	}
	return append(dst, byte(v&0x7F))
}

// bodyLen returns the size of v's encoded body. Every error Encode can
// report is reported here, so that appendValue cannot fail.
func bodyLen(v Value) (int, error) {
	switch v.Tag {
	case TagInteger, TagCounter, TagGauge, TagTimeTicks:
		return intLen(v.Int), nil
	case TagOctets, TagOpaque, TagIPAddress:
		return len(v.Bytes), nil
	case TagNull:
		return 0, nil
	case TagOID:
		return oidLen(v.OID)
	}
	if !isConstructed(v.Tag) {
		return 0, fmt.Errorf("snmp: cannot encode tag 0x%02x", v.Tag)
	}
	n := 0
	for _, sub := range v.Seq {
		l, err := bodyLen(sub)
		if err != nil {
			return 0, err
		}
		n += headerLen(l) + l
	}
	return n, nil
}

// appendValue appends tag, length and body of a value whose body bodyLen
// measured as n; a nested body is measured again when it is reached.
func appendValue(dst []byte, v Value, n int) []byte {
	dst = appendLength(append(dst, v.Tag), n)
	switch v.Tag {
	case TagInteger, TagCounter, TagGauge, TagTimeTicks:
		return appendInt(dst, v.Int)
	case TagOctets, TagOpaque, TagIPAddress:
		return append(dst, v.Bytes...)
	case TagOID:
		return appendOID(dst, v.OID)
	case TagNull:
		return dst
	}
	for _, sub := range v.Seq {
		l, _ := bodyLen(sub)
		dst = appendValue(dst, sub, l)
	}
	return dst
}

// Encode appends the BER encoding of v to dst. It works in two passes,
// size and then write: no body is built apart and copied into its
// parent, and a dst without room grows once, to the exact size.
func Encode(dst []byte, v Value) ([]byte, error) {
	n, err := bodyLen(v)
	if err != nil {
		return nil, err
	}
	if total := headerLen(n) + n; cap(dst)-len(dst) < total {
		dst = append(make([]byte, 0, len(dst)+total), dst...)
	}
	return appendValue(dst, v, n), nil
}

// errTruncated reports malformed input.
var errTruncated = errors.New("snmp: truncated BER data")

// decodeHeader reads tag and length, returning the body slice and rest.
func decodeHeader(data []byte) (tag byte, body, rest []byte, err error) {
	if len(data) < 2 {
		return 0, nil, nil, errTruncated
	}
	tag = data[0]
	l := int(data[1])
	off := 2
	if l >= 0x80 {
		n := l & 0x7F
		if n == 0 || n > 4 || len(data) < 2+n {
			return 0, nil, nil, errTruncated
		}
		l = 0
		for i := 0; i < n; i++ {
			l = l<<8 | int(data[2+i])
		}
		off = 2 + n
	}
	if len(data) < off+l {
		return 0, nil, nil, errTruncated
	}
	return tag, data[off : off+l], data[off+l:], nil
}

// Decode reads one BER value from data, returning it and the remaining
// bytes.
func Decode(data []byte) (Value, []byte, error) {
	tag, body, rest, err := decodeHeader(data)
	if err != nil {
		return Value{}, nil, err
	}
	v := Value{Tag: tag}
	switch {
	case isConstructed(tag):
		for len(body) > 0 {
			var sub Value
			sub, body, err = Decode(body)
			if err != nil {
				return Value{}, nil, err
			}
			v.Seq = append(v.Seq, sub)
		}
	case tag == TagInteger || tag == TagCounter || tag == TagGauge || tag == TagTimeTicks:
		if v.Int, err = decodeInt(body); err != nil {
			return Value{}, nil, err
		}
	case tag == TagOctets || tag == TagOpaque || tag == TagIPAddress:
		v.Bytes = append([]byte(nil), body...)
	case tag == TagNull:
		if len(body) != 0 {
			return Value{}, nil, errors.New("snmp: NULL with content")
		}
	case tag == TagOID:
		oid, err := decodeOID(body)
		if err != nil {
			return Value{}, nil, err
		}
		v.OID = oid
	default:
		return Value{}, nil, fmt.Errorf("snmp: cannot decode tag 0x%02x", tag)
	}
	return v, rest, nil
}

// decodeInt reads a two's-complement big-endian integer body.
func decodeInt(body []byte) (int64, error) {
	if len(body) == 0 || len(body) > 8 {
		return 0, fmt.Errorf("snmp: bad integer length %d", len(body))
	}
	var n int64
	if body[0]&0x80 != 0 {
		n = -1
	}
	for _, b := range body {
		n = n<<8 | int64(b)
	}
	return n, nil
}

func decodeOID(body []byte) (mib.OID, error) {
	if len(body) == 0 {
		return nil, errors.New("snmp: empty OID")
	}
	arcs := 2
	for _, b := range body[1:] {
		if b&0x80 == 0 {
			arcs++
		}
	}
	oid := append(make(mib.OID, 0, arcs), int(body[0])/40, int(body[0])%40)
	var cur uint64
	inArc := false
	for _, b := range body[1:] {
		cur = cur<<7 | uint64(b&0x7F)
		if cur > 1<<31 {
			return nil, errors.New("snmp: OID arc overflow")
		}
		if b&0x80 == 0 {
			oid = append(oid, int(cur))
			cur = 0
			inArc = false
		} else {
			inArc = true
		}
	}
	if inArc {
		return nil, errTruncated
	}
	return oid, nil
}
