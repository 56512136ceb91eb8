package snmp

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nmsl/internal/mib"
)

// benchConfig is the one-community configuration bench/ installs on
// every agent of its fleets.
func benchConfig() *Config {
	return &Config{
		AdminCommunity: "bench-admin",
		Communities:    map[string]*CommunityConfig{"public": {MinInterval: 5 * time.Minute}},
	}
}

// TestConfigWireGolden pins the canonical form and its digest with
// literals (both produced by the encoding/json implementation this
// writer replaced): journals store these bytes, and resume and the
// reconciler compare these digests.
func TestConfigWireGolden(t *testing.T) {
	cases := []struct {
		name   string
		cfg    *Config
		wire   string
		digest string
	}{
		{"bench", benchConfig(),
			`{"communities":{"public":{"access":0,"view":null,"min_interval":300000000000}},"admin_community":"bench-admin"}`,
			"a051d8dcd269fde38b4f2fddd54d96b5143a1b6c75d678adf5abcde6ae2b67d2"},
		{"nil communities", &Config{AdminCommunity: "adm"},
			`{"communities":null,"admin_community":"adm"}`,
			"4c5c3ac69ddb6c0a14cc577557598a82516ffc1a6d0a69a1dcce647aa764433f"},
		{"nil community and nil prefix", &Config{Communities: map[string]*CommunityConfig{
			"gone": nil, "bare": {Access: mib.AccessReadOnly, View: []View{{}}}}},
			`{"communities":{"bare":{"access":2,"view":[{"prefix":null}],"min_interval":0},"gone":null}}`,
			"431e3063891a3bb9f69afd647781feffa0d843f82f48c9e53c0aa952e3c9ee46"},
		{"per-view access", &Config{AdminCommunity: "adm", Communities: map[string]*CommunityConfig{
			"wisc-cs": {Access: mib.AccessReadOnly, MinInterval: 5 * time.Minute, View: []View{
				{Prefix: mib.OID{1, 3, 6, 1, 2, 1, 1}, Access: mib.AccessReadOnly},
				{Prefix: mib.OID{1, 3, 6, 1, 2, 1, 4}, Access: mib.AccessAny},
				{Prefix: mib.OID{1, 3, 6, 1, 4, 1, 42424}}, // inherits ReadOnly
			}},
			"noc": {Access: mib.AccessAny, View: []View{}},
		}},
			`{"communities":{"noc":{"access":4,"view":[],"min_interval":0},"wisc-cs":{"access":2,"view":[{"prefix":[1,3,6,1,2,1,1],"access":2},{"prefix":[1,3,6,1,2,1,4],"access":4},{"prefix":[1,3,6,1,4,1,42424]}],"min_interval":300000000000}},"admin_community":"adm"}`,
			"6fd918bd2164909e8f08c81158286d2baa6e90d4a361db649093ce26af6a5231"},
	}
	for _, tc := range cases {
		got, err := MarshalConfig(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.wire {
			t.Errorf("%s: wire form\n got %s\nwant %s", tc.name, got, tc.wire)
		}
		if cap(got) != len(got) {
			t.Errorf("%s: blob of %d bytes holds %d", tc.name, len(got), cap(got))
		}
		if d := tc.cfg.Digest(); d != tc.digest {
			t.Errorf("%s: digest %s, want %s", tc.name, d, tc.digest)
		}
		back, ok := readCanonicalConfig(got)
		if !ok || !reflect.DeepEqual(back, tc.cfg) {
			t.Errorf("%s: the canonical reader gives %+v, %v", tc.name, back, ok)
		}
	}
	if got, _ := MarshalConfig(nil); string(got) != "null" {
		t.Errorf("nil config marshals to %s", got)
	}
}

// checkConfigBytes holds UnmarshalConfig to encoding/json on data — same
// verdict, and a DeepEqual result, which tells nil from empty — and
// MarshalConfig to json.Marshal on whatever was accepted.
func checkConfigBytes(t *testing.T, data []byte) {
	t.Helper()
	var want Config
	wantErr := json.Unmarshal(data, &want)
	got, err := UnmarshalConfig(data)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("UnmarshalConfig(%q): error %v, encoding/json %v", data, err, wantErr)
	}
	if c, ok := readCanonicalConfig(data); ok {
		if wantErr != nil {
			t.Fatalf("the canonical reader accepts %q, encoding/json says %v", data, wantErr)
		}
		if again, _ := MarshalConfig(c); !bytes.Equal(again, data) {
			t.Fatalf("the canonical reader accepts %q, whose canonical form is %q", data, again)
		}
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("UnmarshalConfig(%q) = %+v, encoding/json %+v", data, got, &want)
	}
	checkConfigMarshal(t, got)
}

func checkConfigMarshal(t *testing.T, c *Config) {
	t.Helper()
	want, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MarshalConfig(c)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("MarshalConfig = %q, %v; json.Marshal = %q", got, err, want)
	}
}

// randomConfig draws every shape the wire form distinguishes: nil, empty
// and filled maps, slices and pointers, names that need escaping, and
// integers at the ends of their ranges.
func randomConfig(rng *rand.Rand) *Config {
	names := []string{"", "public", "wisc-cs", "a<b", `x"y`, `z\`, "é", "noc", "A", "a b", "\x7f", "\xff", "tab\t"}
	ints := []int64{0, 1, -1, 7, 300000000000, math.MaxInt64, math.MinInt64, -42, 1 << 31}
	pick := func() int64 { return ints[rng.Intn(len(ints))] }
	c := &Config{AdminCommunity: names[rng.Intn(len(names))]}
	if rng.Intn(8) > 0 {
		c.Communities = map[string]*CommunityConfig{}
		for n := rng.Intn(4); n > 0; n-- {
			name := names[rng.Intn(len(names))]
			if rng.Intn(8) == 0 {
				c.Communities[name] = nil
				continue
			}
			cc := &CommunityConfig{Access: mib.Access(rng.Intn(6) - 1), MinInterval: time.Duration(pick())}
			if rng.Intn(4) > 0 {
				cc.View = []View{}
				for m := rng.Intn(4); m > 0; m-- {
					v := View{Access: mib.Access(rng.Intn(5))}
					if rng.Intn(4) > 0 {
						v.Prefix = mib.OID{}
						for k := rng.Intn(9); k > 0; k-- {
							v.Prefix = append(v.Prefix, int(pick()))
						}
					}
					cc.View = append(cc.View, v)
				}
			}
			c.Communities[name] = cc
		}
	}
	return c
}

// TestConfigCodecMatchesJSON is the differential test of the blob codec
// against the encoding/json one it replaced: same bytes out, same value
// back, and the same under one random byte mutation, which is how most
// non-canonical inputs are reached.
func TestConfigCodecMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 20000; i++ {
		c := randomConfig(rng)
		checkConfigMarshal(t, c)
		blob, _ := MarshalConfig(c)
		checkConfigBytes(t, blob)
		mutated := append([]byte(nil), blob...)
		switch at := rng.Intn(len(mutated)); rng.Intn(3) {
		case 0:
			mutated[at] = byte(rng.Intn(256))
		case 1:
			mutated = append(mutated[:at], mutated[at+1:]...)
		case 2:
			mutated = append(mutated[:at+1], mutated[at:]...)
			mutated[at] = " 0-,:\"{}[]\\n"[rng.Intn(12)]
		}
		checkConfigBytes(t, mutated)
	}
}

// configSeeds are inputs the canonical reader must leave to
// encoding/json; `go test` runs them as FuzzUnmarshalConfig's corpus.
var configSeeds = []string{
	`{"communities":{"old":{"access":2,"view":[[1,3,6,1,2,1]],"min_interval":0}}}`, // bare-OID views
	`{"communities":{"a<b":{"access":0,"view":null,"min_interval":0},"é":null}}`,
	`{"admin_community":"adm","communities":{}}`,
	`{"Communities":null,"ADMIN_COMMUNITY":"x","extra":[1,{"a":2}]}`,
	`{"communities":{"b":null,"a":null}}`,
	`{"communities":{"a":null,"a":{"access":1,"view":[],"min_interval":-0}}}`,
	`{"communities":{"p":{"access":01,"view":null,"min_interval":1e3}}}`,
	`{"communities":{"p":{"access":9223372036854775808,"view":null,"min_interval":0}}}`,
	` {"communities":null} `,
	`{"communities":null,"admin_community":""}`,
	`{"communities":{"p":{"access":0,"view":[{"prefix":[],"access":0}],"min_interval":0}}}`,
	`null`, `{}`, ``, `{"communities":`,
}

func FuzzUnmarshalConfig(f *testing.F) {
	for _, s := range configSeeds {
		f.Add([]byte(s))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		blob, _ := MarshalConfig(randomConfig(rng))
		f.Add(blob)
	}
	for _, c := range []*Config{benchConfig(), digestTestConfig()} {
		blob, _ := MarshalConfig(c)
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkConfigBytes(t, data) })
}

// TestConfigCodecAllocs holds the blob codec to allocation counts, which
// compare across machines: encoding/json took 15 to read the bench's blob.
func TestConfigCodecAllocs(t *testing.T) {
	cfg := benchConfig()
	blob, _ := MarshalConfig(cfg)
	if n := testing.AllocsPerRun(200, func() { _, _ = MarshalConfig(cfg) }); n > 1 {
		t.Errorf("MarshalConfig allocates %v times, want the blob alone", n)
	}
	if n := testing.AllocsPerRun(200, func() { _, _ = UnmarshalConfig(blob) }); n > 7 {
		t.Errorf("UnmarshalConfig allocates %v times, want at most 7", n)
	}
}
