package snmp

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"time"

	"nmsl/internal/mib"
)

// The wire form of a Config is a format (DESIGN.md, "Wire forms"): the
// install PDU carries its bytes, the journal stores them and
// Config.Digest hashes them. The canonical form is what json.Marshal
// writes for the Config struct; appendConfig writes it without
// reflection, and UnmarshalConfig reads it directly and leaves every
// other spelling to encoding/json.

// MarshalConfig serializes a Config for the live install path. The result
// is allocated at its exact length: agents retain install requests in
// their retransmit caches, one per agent.
func MarshalConfig(c *Config) ([]byte, error) {
	if c == nil {
		return []byte("null"), nil
	}
	var scratch [512]byte
	b := appendConfig(scratch[:0], c)
	return append(make([]byte, 0, len(b)), b...), nil
}

// plainString reports whether json.Marshal writes s between quotes as it
// stands: printable ASCII without the characters it escapes.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendString appends s as a JSON string. Escaping is encoding/json's
// own, so the bytes cannot drift from what it would have written.
func appendString(dst []byte, s string) []byte {
	if plainString(s) {
		return append(append(append(dst, '"'), s...), '"')
	}
	quoted, _ := json.Marshal(s) // a string always marshals
	return append(dst, quoted...)
}

// appendConfig appends the canonical form of c, which is not nil.
func appendConfig(dst []byte, c *Config) []byte {
	dst = append(dst, `{"communities":`...)
	if c.Communities == nil {
		dst = append(dst, "null"...)
	} else {
		var few [8]string
		names := few[:0]
		for name := range c.Communities {
			names = append(names, name)
		}
		sort.Strings(names)
		dst = append(dst, '{')
		for i, name := range names {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(appendString(dst, name), ':')
			dst = appendCommunity(dst, c.Communities[name])
		}
		dst = append(dst, '}')
	}
	if c.AdminCommunity != "" {
		dst = appendString(append(dst, `,"admin_community":`...), c.AdminCommunity)
	}
	return append(dst, '}')
}

func appendCommunity(dst []byte, cc *CommunityConfig) []byte {
	if cc == nil {
		return append(dst, "null"...)
	}
	dst = strconv.AppendInt(append(dst, `{"access":`...), int64(cc.Access), 10)
	dst = append(dst, `,"view":`...)
	if cc.View == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, v := range cc.View {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendView(dst, v)
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"min_interval":`...), int64(cc.MinInterval), 10)
	return append(dst, '}')
}

func appendView(dst []byte, v View) []byte {
	dst = append(dst, `{"prefix":`...)
	if v.Prefix == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, arc := range v.Prefix {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(arc), 10)
		}
		dst = append(dst, ']')
	}
	if v.Access != mib.AccessUnspecified {
		dst = strconv.AppendInt(append(dst, `,"access":`...), int64(v.Access), 10)
	}
	return append(dst, '}')
}

// UnmarshalConfig parses a serialized Config: the canonical form
// directly, anything else — the bare-OID view form of older generators,
// hand-written, reordered or escaped JSON — through encoding/json.
func UnmarshalConfig(data []byte) (*Config, error) {
	if c, ok := readCanonicalConfig(data); ok {
		return c, nil
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, err
	}
	return &c, nil
}

// readCanonicalConfig accepts exactly the inputs appendConfig can have
// written (MarshalConfig of the result gives data back, byte for byte)
// and builds what json.Unmarshal would have built from them.
func readCanonicalConfig(data []byte) (*Config, bool) {
	r := canonReader{b: data}
	c := &Config{}
	r.lit(`{"communities":`)
	if !r.has("null") {
		r.lit("{")
		c.Communities = map[string]*CommunityConfig{}
		prev := ""
		r.list("}", func(i int) {
			name := r.str()
			if i > 0 && name <= prev {
				r.bad = true // unsorted or repeated
			}
			prev = name
			r.lit(":")
			c.Communities[name] = r.community()
		})
	}
	if r.has(`,"admin_community":`) {
		c.AdminCommunity = r.str()
		r.bad = r.bad || c.AdminCommunity == "" // written only when set
	}
	r.lit("}")
	return c, !r.bad && len(r.b) == 0
}

// canonReader consumes canonical configuration JSON from the front of b.
// The first departure from the canonical form sets bad, after which
// every read is a no-op; the caller checks once, at the end.
type canonReader struct {
	b   []byte
	bad bool
}

// has consumes s if the input continues with it.
func (r *canonReader) has(s string) bool {
	if r.bad || len(r.b) < len(s) || string(r.b[:len(s)]) != s {
		return false
	}
	r.b = r.b[len(s):]
	return true
}

// lit consumes s, which the canonical form has here.
func (r *canonReader) lit(s string) { r.bad = !r.has(s) }

// list reads comma-separated elements up to the closing bracket.
func (r *canonReader) list(closing string, elem func(i int)) {
	for i := 0; !r.bad && !r.has(closing); i++ {
		if i > 0 {
			r.lit(",")
		}
		elem(i)
	}
}

// elems counts the elements of the array whose '[' was just consumed, so
// that its slice is allocated once. Canonical arrays hold no strings, so
// brackets and commas are counted as they come.
func (r *canonReader) elems() int {
	if len(r.b) == 0 || r.b[0] == ']' {
		return 0
	}
	n, depth := 1, 0
	for _, c := range r.b {
		switch c {
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return n
			}
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		}
	}
	return n
}

// str reads a string that needed no escaping.
func (r *canonReader) str() string {
	end := -1
	if r.has(`"`) {
		end = bytes.IndexByte(r.b, '"')
	}
	if end < 0 {
		r.bad = true
		return ""
	}
	s := string(r.b[:end])
	r.b = r.b[end+1:]
	r.bad = !plainString(s)
	return s
}

// int reads an integer of the given width as strconv writes it: no
// leading zero, no "-0", no fraction or exponent (whatever follows the
// digits has to be the next literal), within range.
func (r *canonReader) int(bits uint) int64 {
	b := r.b
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	n, u := 0, uint64(0)
	for n < len(b) && n < 20 && b[n]-'0' <= 9 {
		u = u*10 + uint64(b[n]-'0')
		n++
	}
	// 19 digits cannot wrap a uint64; the limit itself is in range only
	// negated.
	limit := uint64(1) << (bits - 1)
	if r.bad || n == 0 || n > 19 || b[0] == '0' && (n > 1 || neg) || u > limit || u == limit && !neg {
		r.bad = true
		return 0
	}
	r.b = b[n:]
	if neg {
		return -int64(u)
	}
	return int64(u)
}

func (r *canonReader) community() *CommunityConfig {
	if r.has("null") {
		return nil
	}
	cc := &CommunityConfig{}
	r.lit(`{"access":`)
	cc.Access = mib.Access(r.int(strconv.IntSize))
	r.lit(`,"view":`)
	if !r.has("null") {
		r.lit("[")
		cc.View = make([]View, 0, r.elems())
		r.list("]", func(int) { cc.View = append(cc.View, r.view()) })
	}
	r.lit(`,"min_interval":`)
	cc.MinInterval = time.Duration(r.int(64))
	r.lit("}")
	return cc
}

func (r *canonReader) view() (v View) {
	r.lit(`{"prefix":`)
	if !r.has("null") {
		r.lit("[")
		v.Prefix = make(mib.OID, 0, r.elems())
		r.list("]", func(int) { v.Prefix = append(v.Prefix, int(r.int(strconv.IntSize))) })
	}
	if r.has(`,"access":`) {
		v.Access = mib.Access(r.int(strconv.IntSize))
		r.bad = r.bad || v.Access == mib.AccessUnspecified // written only when set
	}
	r.lit("}")
	return v
}
