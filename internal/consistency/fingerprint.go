package consistency

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"strconv"

	"nmsl/internal/mib"
)

// Dependency fingerprints (the incremental-checking tentpole, layer 3).
// A reference's verdict depends on a small, enumerable slice of the model:
// the reference tuple itself, the target's support views, the containment
// ancestry of both parties, and the candidate permissions reachable
// through the grantor indexes (which subsume the restriction rule's
// export lists). The fingerprint hashes a canonical encoding of exactly
// that slice, so a cached verdict may be replayed iff the fingerprint is
// unchanged. MIB nodes are encoded by their full dotted path — a path
// names the node's entire ancestor chain, so any re-parenting or rename
// in the touched subtree changes the encoding.

// Key returns a stable identity for the reference across model rebuilds:
// the reference tuple, without any of the model state the verdict depends
// on. Duplicate references (identical queries) share a key — and, by
// construction, a fingerprint and a verdict — so sharing a cache entry is
// sound.
func (r *Ref) Key() string { return string(r.appendKey(nil)) }

// appendKey appends the Key encoding to b and returns the extended
// slice. The hot cached path builds keys into a per-worker scratch
// buffer this way and looks them up without materializing a string
// (cache.go), so a warm steady-state check allocates nothing per
// reference. The byte encoding is identical to Key's — persisted cache
// files from either path interoperate.
func (r *Ref) appendKey(b []byte) []byte {
	t, strict, infreq := r.guarantee()
	b = append(b, r.Source.ID...)
	b = append(b, 0)
	b = append(b, r.Target.ID...)
	b = append(b, 0)
	b = append(b, r.Var.Path()...)
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(r.Access), 10)
	b = append(b, 0)
	b = strconv.AppendUint(b, math.Float64bits(t), 16)
	b = append(b, 0)
	b = append(b, boolByteRaw(strict), boolByteRaw(infreq), 0)
	b = append(b, r.Resolution...)
	return b
}

func boolByteRaw(v bool) byte {
	if v {
		return '1'
	}
	return '0'
}

// encoder appends NUL-separated fields into a reusable scratch buffer.
type encoder struct{ b []byte }

func (e *encoder) str(s string) {
	e.b = append(e.b, s...)
	e.b = append(e.b, 0)
}

func (e *encoder) f64(f float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	e.b = append(e.b, buf[:]...)
	e.b = append(e.b, 0)
}

func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, 1, 0)
	} else {
		e.b = append(e.b, 0, 0)
	}
}

func (e *encoder) access(a mib.Access) { e.b = append(e.b, byte(a), 0) }

// view encodes a support view: each declared pattern together with the
// full path of the node it currently resolves to (or a miss marker), so
// both view edits and MIB restructurings under an unchanged pattern are
// visible.
func (e *encoder) view(m *Model, view []string) {
	for _, v := range view {
		e.str(v)
		if n := m.resolveVar(v); n != nil {
			e.str(n.Path())
		} else {
			e.str("\x01unresolved")
		}
	}
	e.str("\x02end-view")
}

// perms encodes the permissions pis.
func (e *encoder) perms(m *Model, pis []int32) {
	for _, pi := range pis {
		p := &m.Perms[pi]
		e.str(p.Grantee)
		e.str(p.GrantorInst)
		e.str(p.GrantorDomain)
		e.str(p.DeclaredBy)
		e.str(p.Var.Path())
		e.access(p.Access)
		e.f64(p.MinPeriod)
		e.bool(p.Strict)
	}
}

// fingerprint hashes everything checkRef consults for the reference. The
// scratch's encoding buffer is reused across calls.
func (c *Checker) fingerprint(ref *Ref, sc *scratch) [32]byte {
	e := encoder{b: sc.enc[:0]}
	m := c.m

	// The reference tuple (guarantee covers Freq's verdict-relevant
	// content; Freq.String appears in messages, so encode its parts too).
	e.str(ref.Source.ID)
	e.str(ref.Target.ID)
	e.str(ref.Var.Path())
	e.access(ref.Access)
	e.str(ref.Freq.Op)
	e.f64(ref.Freq.Seconds)
	e.bool(ref.Freq.Infrequent)
	e.str(string(ref.Resolution))

	// Rule 3: the target's effective support — its process view and, for
	// system-hosted instances, the element view.
	e.str(ref.Target.Proc.Name)
	e.view(m, ref.Target.Proc.Supports)
	e.str(ref.Target.System)
	if ref.Target.System != "" {
		if ss := m.Spec.Systems[ref.Target.System]; ss != nil {
			e.view(m, ss.Supports)
		}
	}

	// Containment ancestry of both parties, by name in id (so sorted
	// name) order: grantee cover checks for the source,
	// grantor/restriction domains for the target.
	for _, d := range c.co.instDoms(ref.Source.idx) {
		e.str(c.co.domName[d])
	}
	e.str("\x02end-src")
	for _, d := range c.co.instDoms(ref.Target.idx) {
		e.str(c.co.domName[d])
	}
	e.str("\x02end-tgt")

	// The candidate permissions, in index order: the target's own grants,
	// then each containing domain's, walked in place (buildPerms numbers
	// them so that this is ascending). These subsume the restriction
	// rule: a restricting domain's export list is exactly its
	// grantor-domain permissions, all of which are candidates for any
	// target the domain contains.
	e.perms(m, c.co.permsByInst[ref.Target.idx])
	for _, d := range c.co.instDoms(ref.Target.idx) {
		e.perms(m, c.co.permsByDom[d])
	}

	sc.enc = e.b
	return sha256.Sum256(e.b)
}
