package snmp

// The codec this package shipped until the direct one replaced it: every
// message went through a generic Value tree, each nested body encoded
// into a buffer of its own and copied into its parent. The bodies are
// kept verbatim, leaf helpers included, as the oracle the direct
// Marshal, Unmarshal and Encode are compared with (TestMessageCodecMatchesTree,
// FuzzUnmarshal).

import (
	"errors"
	"fmt"

	"nmsl/internal/mib"
)

// treeAppendLength appends a BER definite length.
func treeAppendLength(dst []byte, n int) []byte {
	if n < 0x80 {
		return append(dst, byte(n))
	}
	var tmp [8]byte
	i := len(tmp)
	for n > 0 {
		i--
		tmp[i] = byte(n)
		n >>= 8
	}
	dst = append(dst, 0x80|byte(len(tmp)-i))
	return append(dst, tmp[i:]...)
}

// treeAppendInt appends a two's-complement big-endian integer body.
func treeAppendInt(dst []byte, v int64) []byte {
	// minimal two's complement encoding
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
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(i*8)))
	}
	return dst
}

// treeAppendOID appends OID body bytes (X.690 packed form).
func treeAppendOID(dst []byte, oid mib.OID) ([]byte, error) {
	if len(oid) < 2 {
		return nil, fmt.Errorf("snmp: OID %v too short to encode", oid)
	}
	if oid[0] > 2 || oid[1] >= 40 {
		return nil, fmt.Errorf("snmp: OID %v has invalid first arcs", oid)
	}
	dst = append(dst, byte(oid[0]*40+oid[1]))
	for _, arc := range oid[2:] {
		if arc < 0 {
			return nil, fmt.Errorf("snmp: negative OID arc %d", arc)
		}
		dst = appendBase128(dst, uint64(arc))
	}
	return dst, nil
}

// treeEncode appends the BER encoding of v to dst.
func treeEncode(dst []byte, v Value) ([]byte, error) {
	var body []byte
	var err error
	switch {
	case isConstructed(v.Tag):
		for _, sub := range v.Seq {
			body, err = treeEncode(body, sub)
			if err != nil {
				return nil, err
			}
		}
	case v.Tag == TagInteger || v.Tag == TagCounter || v.Tag == TagGauge || v.Tag == TagTimeTicks:
		body = treeAppendInt(nil, v.Int)
	case v.Tag == TagOctets || v.Tag == TagOpaque || v.Tag == TagIPAddress:
		body = append(body, v.Bytes...)
	case v.Tag == TagNull:
		// empty
	case v.Tag == TagOID:
		body, err = treeAppendOID(nil, v.OID)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("snmp: cannot encode tag 0x%02x", v.Tag)
	}
	dst = append(dst, v.Tag)
	dst = treeAppendLength(dst, len(body))
	return append(dst, body...), nil
}

// treeDecode reads one BER value from data, returning it and the remaining
// bytes.
func treeDecode(data []byte) (Value, []byte, error) {
	tag, body, rest, err := decodeHeader(data)
	if err != nil {
		return Value{}, nil, err
	}
	v := Value{Tag: tag}
	switch {
	case isConstructed(tag):
		for len(body) > 0 {
			var sub Value
			sub, body, err = treeDecode(body)
			if err != nil {
				return Value{}, nil, err
			}
			v.Seq = append(v.Seq, sub)
		}
	case tag == TagInteger || tag == TagCounter || tag == TagGauge || tag == TagTimeTicks:
		if len(body) == 0 || len(body) > 8 {
			return Value{}, nil, fmt.Errorf("snmp: bad integer length %d", len(body))
		}
		var n int64
		if body[0]&0x80 != 0 {
			n = -1
		}
		for _, b := range body {
			n = n<<8 | int64(b)
		}
		v.Int = n
	case tag == TagOctets || tag == TagOpaque || tag == TagIPAddress:
		v.Bytes = append([]byte(nil), body...)
	case tag == TagNull:
		if len(body) != 0 {
			return Value{}, nil, errors.New("snmp: NULL with content")
		}
	case tag == TagOID:
		oid, err := treeDecodeOID(body)
		if err != nil {
			return Value{}, nil, err
		}
		v.OID = oid
	default:
		return Value{}, nil, fmt.Errorf("snmp: cannot decode tag 0x%02x", tag)
	}
	return v, rest, nil
}

func treeDecodeOID(body []byte) (mib.OID, error) {
	if len(body) == 0 {
		return nil, errors.New("snmp: empty OID")
	}
	oid := mib.OID{int(body[0]) / 40, int(body[0]) % 40}
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

// treeMarshal encodes the message to wire format.
func treeMarshal(m *Message) ([]byte, error) {
	binds := make([]Value, 0, len(m.PDU.Bindings))
	for _, b := range m.PDU.Bindings {
		binds = append(binds, Seq(OIDValue(b.OID), b.Value))
	}
	pdu := Value{
		Tag: m.PDU.Type,
		Seq: []Value{
			Int64(int64(m.PDU.RequestID)),
			Int64(int64(m.PDU.ErrorStatus)),
			Int64(int64(m.PDU.ErrorIndex)),
			Seq(binds...),
		},
	}
	msg := Seq(Int64(int64(m.Version)), Str(m.Community), pdu)
	return treeEncode(nil, msg)
}

// treeUnmarshal decodes a wire-format message.
func treeUnmarshal(data []byte) (*Message, error) {
	v, rest, err := treeDecode(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, errors.New("snmp: trailing bytes after message")
	}
	if v.Tag != TagSequence || len(v.Seq) != 3 {
		return nil, errors.New("snmp: message is not a 3-element SEQUENCE")
	}
	ver, comm, pdu := v.Seq[0], v.Seq[1], v.Seq[2]
	if ver.Tag != TagInteger || comm.Tag != TagOctets {
		return nil, errors.New("snmp: bad message header")
	}
	switch pdu.Tag {
	case TagGetRequest, TagGetNextRequest, TagGetResponse, TagSetRequest:
	default:
		return nil, fmt.Errorf("snmp: unknown PDU tag 0x%02x", pdu.Tag)
	}
	if len(pdu.Seq) != 4 {
		return nil, errors.New("snmp: PDU is not a 4-element sequence")
	}
	reqID, errSt, errIx, vbl := pdu.Seq[0], pdu.Seq[1], pdu.Seq[2], pdu.Seq[3]
	if reqID.Tag != TagInteger || errSt.Tag != TagInteger || errIx.Tag != TagInteger || vbl.Tag != TagSequence {
		return nil, errors.New("snmp: bad PDU fields")
	}
	out := &Message{
		Version:   int(ver.Int),
		Community: string(comm.Bytes),
		PDU: PDU{
			Type:        pdu.Tag,
			RequestID:   int32(reqID.Int),
			ErrorStatus: ErrorStatus(errSt.Int),
			ErrorIndex:  int(errIx.Int),
		},
	}
	for i, vb := range vbl.Seq {
		if vb.Tag != TagSequence || len(vb.Seq) != 2 || vb.Seq[0].Tag != TagOID {
			return nil, fmt.Errorf("snmp: bad variable binding %d", i)
		}
		out.PDU.Bindings = append(out.PDU.Bindings, Binding{
			OID:   vb.Seq[0].OID,
			Value: vb.Seq[1],
		})
	}
	return out, nil
}
