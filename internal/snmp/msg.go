package snmp

import (
	"errors"
	"fmt"

	"nmsl/internal/mib"
)

// Version0 is the SNMPv1 version number on the wire (RFC 1067: version-1
// is encoded as 0).
const Version0 = 0

// ErrorStatus values (RFC 1067).
type ErrorStatus int

const (
	NoError ErrorStatus = iota
	TooBig
	NoSuchName
	BadValue
	ReadOnly
	GenErr
)

func (e ErrorStatus) String() string {
	switch e {
	case NoError:
		return "noError"
	case TooBig:
		return "tooBig"
	case NoSuchName:
		return "noSuchName"
	case BadValue:
		return "badValue"
	case ReadOnly:
		return "readOnly"
	case GenErr:
		return "genErr"
	}
	return fmt.Sprintf("errorStatus(%d)", int(e))
}

// Binding is one variable binding: an OID and its value (NULL in
// requests).
type Binding struct {
	OID   mib.OID
	Value Value
}

// PDU is a protocol data unit.
type PDU struct {
	// Type is one of the PDU tags (TagGetRequest, TagGetNextRequest,
	// TagGetResponse, TagSetRequest).
	Type        byte
	RequestID   int32
	ErrorStatus ErrorStatus
	ErrorIndex  int
	Bindings    []Binding
}

// Message is a community-authenticated message.
type Message struct {
	Version   int
	Community string
	PDU       PDU
}

// lens sizes the bodies of the binding's OID and value, reporting what
// Encode would of either.
func (b *Binding) lens() (oid, val int, err error) {
	if oid, err = oidLen(b.OID); err != nil {
		return 0, 0, err
	}
	val, err = bodyLen(b.Value)
	return oid, val, err
}

// Marshal encodes the message to wire format. The frame is fixed, so it
// is sized bottom-up and then written into one buffer of exactly that
// size; only a binding's value goes through the generic encoder.
func (m *Message) Marshal() ([]byte, error) {
	if !isConstructed(m.PDU.Type) {
		return nil, fmt.Errorf("snmp: cannot encode PDU type 0x%02x", m.PDU.Type)
	}
	vblLen := 0
	for i := range m.PDU.Bindings {
		oid, val, err := m.PDU.Bindings[i].lens()
		if err != nil {
			return nil, err
		}
		n := headerLen(oid) + oid + headerLen(val) + val
		vblLen += headerLen(n) + n
	}
	// An INTEGER's body is at most 8 bytes, so its header is 2.
	ints := [4]int64{int64(m.Version), int64(m.PDU.RequestID), int64(m.PDU.ErrorStatus), int64(m.PDU.ErrorIndex)}
	pduLen := headerLen(vblLen) + vblLen
	for _, v := range ints[1:] {
		pduLen += 2 + intLen(v)
	}
	msgLen := 2 + intLen(ints[0]) + headerLen(len(m.Community)) + len(m.Community) + headerLen(pduLen) + pduLen

	out := make([]byte, 0, headerLen(msgLen)+msgLen)
	out = appendLength(append(out, TagSequence), msgLen)
	out = appendValue(out, Int64(ints[0]), intLen(ints[0]))
	out = appendLength(append(out, TagOctets), len(m.Community))
	out = append(out, m.Community...)
	out = appendLength(append(out, m.PDU.Type), pduLen)
	for _, v := range ints[1:] {
		out = appendValue(out, Int64(v), intLen(v))
	}
	out = appendLength(append(out, TagSequence), vblLen)
	for i := range m.PDU.Bindings {
		b := &m.PDU.Bindings[i]
		oid, val, _ := b.lens()
		out = appendLength(append(out, TagSequence), headerLen(oid)+oid+headerLen(val)+val)
		out = appendOID(appendLength(append(out, TagOID), oid), b.OID)
		out = appendValue(out, b.Value, val)
	}
	return out, nil
}

// Unmarshal decodes a wire-format message. It reads the fixed frame
// straight from the bytes and hands only each binding's value to the
// generic decoder.
func Unmarshal(data []byte) (*Message, error) {
	body, rest, err := element(data, TagSequence)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errors.New("snmp: trailing bytes after message")
	}
	var ints [4]int64 // version, then (below) request-id, error-status, error-index
	if ints[0], body, err = integer(body); err != nil {
		return nil, err
	}
	community, body, err := element(body, TagOctets)
	if err != nil {
		return nil, err
	}
	pduType, body, rest, err := decodeHeader(body)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errors.New("snmp: message is not a 3-element SEQUENCE")
	}
	switch pduType {
	case TagGetRequest, TagGetNextRequest, TagGetResponse, TagSetRequest:
	default:
		return nil, fmt.Errorf("snmp: unknown PDU tag 0x%02x", pduType)
	}
	for i := 1; i < len(ints); i++ {
		if ints[i], body, err = integer(body); err != nil {
			return nil, err
		}
	}
	vbl, rest, err := element(body, TagSequence)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errors.New("snmp: PDU is not a 4-element sequence")
	}
	out := &Message{
		Version:   int(ints[0]),
		Community: string(community),
		PDU: PDU{
			Type:        pduType,
			RequestID:   int32(ints[1]),
			ErrorStatus: ErrorStatus(ints[2]),
			ErrorIndex:  int(ints[3]),
		},
	}
	// Count before decoding, so the bindings are allocated once, at their
	// final length.
	n := 0
	for rest = vbl; len(rest) > 0; n++ {
		if _, _, rest, err = decodeHeader(rest); err != nil {
			return nil, err
		}
	}
	if n > 0 {
		out.PDU.Bindings = make([]Binding, n)
	}
	for i := range out.PDU.Bindings {
		if vbl, err = decodeBinding(vbl, &out.PDU.Bindings[i]); err != nil {
			return nil, fmt.Errorf("snmp: variable binding %d: %w", i, err)
		}
	}
	return out, nil
}

// element reads one element from the front of data, which has to carry
// the tag want.
func element(data []byte, want byte) (body, rest []byte, err error) {
	tag, body, rest, err := decodeHeader(data)
	if err == nil && tag != want {
		err = fmt.Errorf("snmp: tag 0x%02x where 0x%02x belongs", tag, want)
	}
	return body, rest, err
}

// integer reads one INTEGER from the front of data.
func integer(data []byte) (v int64, rest []byte, err error) {
	body, rest, err := element(data, TagInteger)
	if err == nil {
		v, err = decodeInt(body)
	}
	return v, rest, err
}

// decodeBinding reads one variable binding, a SEQUENCE of an OID and one
// value, from the front of data.
func decodeBinding(data []byte, b *Binding) (rest []byte, err error) {
	body, rest, err := element(data, TagSequence)
	if err != nil {
		return nil, err
	}
	oid, value, err := element(body, TagOID)
	if err != nil {
		return nil, err
	}
	if b.OID, err = decodeOID(oid); err != nil {
		return nil, err
	}
	if b.Value, value, err = Decode(value); err != nil {
		return nil, err
	}
	if len(value) != 0 {
		return nil, errors.New("more than two elements")
	}
	return rest, nil
}
