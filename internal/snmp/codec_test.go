package snmp

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"nmsl/internal/mib"
)

// installPDU is the datagram bench/ measures: the bench's configuration
// blob written to ConfigOID by the admin community, 159 bytes on the wire.
func installPDU(t testing.TB) (*Message, []byte) {
	blob, err := MarshalConfig(benchConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := &Message{Version: Version0, Community: "bench-admin", PDU: PDU{
		Type: TagSetRequest, RequestID: 1,
		Bindings: []Binding{{OID: ConfigOID, Value: Opaque(blob)}},
	}}
	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return m, wire
}

// checkMarshal holds the direct encoder to the tree encoder on m: the same
// bytes, or both refuse.
func checkMarshal(t *testing.T, m *Message) []byte {
	t.Helper()
	want, wantErr := treeMarshal(m)
	got, err := m.Marshal()
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("Marshal(%+v): error %v, tree encoder %v", m, err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Marshal(%+v) = %x, tree encoder %x", m, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("Marshal(%+v): %d bytes in a buffer of %d", m, len(got), cap(got))
	}
	return got
}

// checkDatagram holds the direct decoder to the tree decoder on data: the
// same verdict, a DeepEqual message (so nil and empty are told apart),
// and a message that encodes back as the tree encoder has it. What is
// accepted goes to an agent of its own (an install replaces the agent's
// configuration), which must survive it.
func checkDatagram(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := treeUnmarshal(data)
	got, err := Unmarshal(data)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("Unmarshal(%x): error %v, tree decoder %v", data, err, wantErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Unmarshal(%x) = %+v, tree decoder %+v", data, got, want)
	}
	checkMarshal(t, got)
	if resp := stubAgent().Handle(got); resp != nil {
		checkMarshal(t, resp)
	}
}

// stubAgent serves the communities the seed datagrams name.
func stubAgent() *Agent {
	store := NewStore()
	store.Set(mib.OID{1, 3, 6, 1, 2, 1, 1, 1}, Str("stub"))
	return NewAgent(store, &Config{
		AdminCommunity: "bench-admin",
		Communities: map[string]*CommunityConfig{
			"public": {Access: mib.AccessAny, View: []View{{Prefix: mib.OID{1, 3, 6}}}},
			"c":      {Access: mib.AccessReadOnly, View: []View{{Prefix: mib.OID{1, 3}}}},
		},
	})
}

func randomValue(rng *rand.Rand, depth int) Value {
	switch k := rng.Intn(6); {
	case k == 0:
		return Null()
	case k == 1:
		return Int64(int64(rng.Uint64()) >> uint(rng.Intn(64)))
	case k == 2:
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		return Opaque(b)
	case k == 3:
		return Value{Tag: TagOID, OID: randomOID(rng)}
	case k == 4 && depth < 3:
		v := Value{Tag: TagSequence}
		for n := rng.Intn(4); n > 0; n-- {
			v.Seq = append(v.Seq, randomValue(rng, depth+1))
		}
		return v
	}
	return Value{Tag: []byte{TagCounter, TagGauge, TagTimeTicks, TagIPAddress, TagOctets}[rng.Intn(5)],
		Int: rng.Int63n(1 << 40), Bytes: []byte{10, 0, 0, byte(rng.Intn(256))}}
}

// randomOID is mostly encodable; the rest is what Marshal must refuse.
func randomOID(rng *rand.Rand) mib.OID {
	oid := mib.OID{rng.Intn(3), rng.Intn(40)}
	for n := rng.Intn(10); n > 0; n-- {
		oid = append(oid, rng.Intn(1<<uint(1+rng.Intn(31))))
	}
	switch rng.Intn(40) {
	case 0:
		return oid[:1]
	case 1:
		oid[rng.Intn(len(oid))] = -1
	case 2:
		oid[0] = 3
	}
	return oid
}

func randomMessage(rng *rand.Rand) *Message {
	m := &Message{
		Version:   rng.Intn(3) - rng.Intn(2),
		Community: []string{"public", "bench-admin", "c", "", string(make([]byte, 130))}[rng.Intn(5)],
		PDU: PDU{
			Type:        []byte{TagGetRequest, TagGetNextRequest, TagGetResponse, TagSetRequest}[rng.Intn(4)],
			RequestID:   int32(rng.Uint32()),
			ErrorStatus: ErrorStatus(rng.Intn(7)),
			ErrorIndex:  rng.Intn(300),
		},
	}
	for n := rng.Intn(4); n > 0; n-- {
		m.PDU.Bindings = append(m.PDU.Bindings, Binding{OID: randomOID(rng), Value: randomValue(rng, 0)})
	}
	return m
}

// TestMessageCodecMatchesTree is the differential test of the direct
// message codec against the Value-tree one it replaced, over all four PDU
// types and every kind of binding value, half of the datagrams damaged
// first. Encode is held to the tree encoder on the same values.
func TestMessageCodecMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	cases := 50000
	if testing.Short() {
		cases = 5000
	}
	for i := 0; i < cases; i++ {
		v := randomValue(rng, 0)
		want, wantErr := treeEncode([]byte{0xAA}, v)
		got, err := Encode([]byte{0xAA}, v)
		if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("Encode(%v) = %x, %v; tree encoder %x, %v", v, got, err, want, wantErr)
		}
		data := checkMarshal(t, randomMessage(rng))
		if data == nil {
			continue
		}
		switch rng.Intn(6) {
		case 0:
			data = data[:rng.Intn(len(data))]
		case 1:
			data[rng.Intn(len(data))] = byte(rng.Intn(256))
		case 2:
			data[rng.Intn(len(data))] ^= 1 << uint(rng.Intn(8))
		}
		checkDatagram(t, data)
	}
	// A PDU type that is not constructed never reaches the wire: the tree
	// encoder wrote such a PDU as an empty primitive, which no decoder
	// took back.
	if _, err := (&Message{PDU: PDU{Type: TagInteger}}).Marshal(); err == nil {
		t.Error("Marshal accepted a primitive PDU type")
	}
}

func FuzzUnmarshal(f *testing.F) {
	_, install := installPDU(f)
	get, _ := (&Message{Version: Version0, Community: "public", PDU: PDU{
		Type: TagGetRequest, RequestID: 42, Bindings: []Binding{
			{OID: mib.OID{1, 3, 6, 1, 2, 1, 1, 1}, Value: Null()},
			{OID: mib.OID{1, 3, 6, 1, 2, 1, 1, 3}, Value: Null()},
		}}}).Marshal()
	empty, _ := (&Message{Community: "c", PDU: PDU{Type: TagGetRequest, RequestID: 1}}).Marshal()
	notSeq, _ := Encode(nil, Int64(1))
	nested, _ := (&Message{Community: "public", PDU: PDU{Type: TagSetRequest, Bindings: []Binding{
		{OID: mib.OID{1, 3, 6, 1}, Value: Seq(Int64(-1), Seq(), Str("x"))}}}}).Marshal()
	for _, seed := range [][]byte{install, get, empty, append(empty[:len(empty):len(empty)], 0), notSeq, nested,
		install[:len(install)-3], {0x30, 0x00}, {0x30, 0x84, 0xff, 0xff, 0xff, 0xff}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDatagram(t, data) })
}

// TestMessageCodecAllocs holds the per-datagram codec to allocation
// counts, which compare across machines: through the Value tree the
// install PDU took 28 allocations to send and 17 to receive.
func TestMessageCodecAllocs(t *testing.T) {
	m, wire := installPDU(t)
	if len(wire) != 159 {
		t.Errorf("the install PDU is %d bytes on the wire, want 159", len(wire))
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = m.Marshal() }); n > 2 {
		t.Errorf("Marshal allocates %v times, want at most 2", n)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = Unmarshal(wire) }); n > 8 {
		t.Errorf("Unmarshal allocates %v times, want at most 8", n)
	}
}
