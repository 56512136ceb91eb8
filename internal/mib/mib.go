// Package mib implements the Management Information Base name tree that
// NMSL specifications reference (paper sections 3.1, 4.1.2).
//
// The MIB is the collection of data objects that network-management
// queries read and write. NMSL names MIB objects with dotted paths rooted
// in the standards' registration tree, e.g. mgmt.mib.ip.ipAddrTable
// (Figure 4.4). Three properties of the tree matter to NMSL:
//
//   - name resolution: a dotted name denotes a node (and its OID);
//   - subtree containment: supporting or exporting "mgmt.mib" covers
//     every object below it ("by supporting mgmt.mib, the agent supports
//     the full IETF MIB");
//   - access modes: a node may carry an access mode that is inherited by
//     contained objects unless they override it (Figure 4.2).
//
// The package ships the IETF MIB-I layout of RFC 1066 (the MIB the paper's
// examples use) and supports registering additional subtrees, which the
// compiler does for objects introduced by type specifications.
package mib

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Access is a data access mode (paper Figure 4.1: AType).
type Access int

const (
	// AccessUnspecified means the node inherits its containing node's
	// access mode (Figure 4.2's IpAddrEntry).
	AccessUnspecified Access = iota
	// AccessNone forbids all access.
	AccessNone
	// AccessReadOnly allows read access only.
	AccessReadOnly
	// AccessWriteOnly allows write access only.
	AccessWriteOnly
	// AccessAny allows read and write access.
	AccessAny
)

// ParseAccess maps the NMSL access keywords to Access values.
func ParseAccess(word string) (Access, error) {
	switch word {
	case "Any":
		return AccessAny, nil
	case "ReadOnly":
		return AccessReadOnly, nil
	case "WriteOnly":
		return AccessWriteOnly, nil
	case "None":
		return AccessNone, nil
	}
	return AccessUnspecified, fmt.Errorf("unknown access mode %q (want Any, ReadOnly, WriteOnly or None)", word)
}

// String returns the NMSL keyword for the access mode.
func (a Access) String() string {
	switch a {
	case AccessUnspecified:
		return "Unspecified"
	case AccessNone:
		return "None"
	case AccessReadOnly:
		return "ReadOnly"
	case AccessWriteOnly:
		return "WriteOnly"
	case AccessAny:
		return "Any"
	}
	return fmt.Sprintf("Access(%d)", int(a))
}

// Allows reports whether a permission granted at mode a covers a reference
// made at mode need. Any covers everything except that nothing covers a
// need of Any but Any itself; None covers nothing and needs nothing.
func (a Access) Allows(need Access) bool {
	if need == AccessNone || need == AccessUnspecified {
		return true
	}
	if a == AccessAny {
		return true
	}
	return a == need
}

// Covers reports whether mode a grants at least everything mode b grants:
// the partial order of the access lattice None < {ReadOnly, WriteOnly} < Any,
// with Unspecified treated as None (an unspecified grant grants nothing by
// itself). ReadOnly and WriteOnly are incomparable.
func (a Access) Covers(b Access) bool {
	if b == AccessNone || b == AccessUnspecified {
		return true
	}
	if a == AccessAny {
		return true
	}
	return a == b
}

// Join returns the least upper bound of two access modes: the weakest mode
// granting everything either mode grants. ReadOnly ∨ WriteOnly = Any.
func (a Access) Join(b Access) Access {
	switch {
	case a.Covers(b):
		return a
	case b.Covers(a):
		return b
	default:
		return AccessAny
	}
}

// Meet returns the greatest lower bound of two access modes: the strongest
// mode granted by both. ReadOnly ∧ WriteOnly = None.
func (a Access) Meet(b Access) Access {
	switch {
	case a.Covers(b):
		return b
	case b.Covers(a):
		return a
	default:
		return AccessNone
	}
}

// OID is an object identifier: a sequence of non-negative sub-identifiers.
type OID []int

// String renders the OID in dotted numeric form, e.g. "1.3.6.1.2.1.4".
func (o OID) String() string {
	parts := make([]string, len(o))
	for i, n := range o {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, ".")
}

// HasPrefix reports whether p is a prefix of (or equal to) o.
func (o OID) HasPrefix(p OID) bool {
	if len(p) > len(o) {
		return false
	}
	for i := range p {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// Compare orders OIDs lexicographically (the SNMP GetNext order).
func (o OID) Compare(other OID) int {
	for i := 0; i < len(o) && i < len(other); i++ {
		switch {
		case o[i] < other[i]:
			return -1
		case o[i] > other[i]:
			return 1
		}
	}
	switch {
	case len(o) < len(other):
		return -1
	case len(o) > len(other):
		return 1
	}
	return 0
}

// Clone returns a copy of the OID.
func (o OID) Clone() OID {
	c := make(OID, len(o))
	copy(c, o)
	return c
}

// Node is one node in the MIB tree.
type Node struct {
	// Name is the node's label, e.g. "ipAddrTable".
	Name string
	// Arc is the node's sub-identifier under its parent.
	Arc int
	// Access is the node's declared access mode; AccessUnspecified
	// inherits from the parent.
	Access Access
	// TypeName names the NMSL/ASN.1 type of the object, when known.
	TypeName string

	parent   *Node
	children map[string]*Node
	// path is the dotted name from the root, materialized at
	// registration (a node's parent never changes after creation). The
	// consistency checker's warm path hashes paths per reference, so
	// Path must not rebuild the string per call.
	path string
	// rootOID, when set on a root node, replaces the single-arc OID so a
	// subtree can live at its real registration-tree position (e.g. mgmt
	// at iso.org.dod.internet.mgmt = 1.3.6.1.2) without dragging the full
	// dotted name through every specification.
	rootOID OID
}

// Path returns the dotted name from the root, e.g. "mgmt.mib.ip". The
// recursive reconstruction only runs for Node literals built outside
// Register (tests); registered nodes return the memoized path.
func (n *Node) Path() string {
	if n.path != "" {
		return n.path
	}
	if n.parent == nil {
		return n.Name
	}
	return n.parent.Path() + "." + n.Name
}

// OID returns the node's object identifier.
func (n *Node) OID() OID {
	if n.parent == nil {
		if n.rootOID != nil {
			return n.rootOID.Clone()
		}
		return OID{n.Arc}
	}
	return append(n.parent.OID(), n.Arc)
}

// EffectiveAccess resolves inherited access: the nearest ancestor (or the
// node itself) with a specified mode; AccessAny if none is specified
// anywhere, since an unconstrained MIB object is unrestricted until a
// specification says otherwise.
func (n *Node) EffectiveAccess() Access {
	for cur := n; cur != nil; cur = cur.parent {
		if cur.Access != AccessUnspecified {
			return cur.Access
		}
	}
	return AccessAny
}

// Parent returns the containing node, or nil at a root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the node's children sorted by arc.
func (n *Node) Children() []*Node {
	out := make([]*Node, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Arc < out[j].Arc })
	return out
}

// Contains reports whether other lies in the subtree rooted at n
// (inclusive). This is the MIB-side containment relation used by the
// consistency model (Figure 4.9).
func (n *Node) Contains(other *Node) bool {
	for cur := other; cur != nil; cur = cur.parent {
		if cur == n {
			return true
		}
	}
	return false
}

// Tree is a MIB name tree with a set of roots.
type Tree struct {
	roots map[string]*Node
	byOID map[string]*Node
}

// NewEmpty returns a Tree with no nodes.
func NewEmpty() *Tree {
	return &Tree{roots: map[string]*Node{}, byOID: map[string]*Node{}}
}

// RegisterRoot creates (or finds) a root node with an explicit OID
// position in the global registration tree. It must be called before any
// Register that would create the root implicitly.
func (t *Tree) RegisterRoot(name string, oid OID) (*Node, error) {
	if name == "" || len(oid) == 0 {
		return nil, fmt.Errorf("mib: root needs a name and an OID")
	}
	if existing, ok := t.roots[name]; ok {
		if existing.OID().Compare(oid) != 0 {
			return nil, fmt.Errorf("mib: root %s already registered at %s", name, existing.OID())
		}
		return existing, nil
	}
	root := &Node{Name: name, path: name, Arc: oid[len(oid)-1], rootOID: oid.Clone(), children: map[string]*Node{}}
	t.roots[name] = root
	t.byOID[root.OID().String()] = root
	return root, nil
}

// Register adds (or finds) the node at the dotted path, creating
// intermediate nodes as needed. Arcs for created nodes are assigned
// sequentially after the current maximum, unless the node is predefined.
// It returns the node at the full path.
func (t *Tree) Register(path string) (*Node, error) {
	if path == "" {
		return nil, fmt.Errorf("empty MIB path")
	}
	parts := strings.Split(path, ".")
	root, ok := t.roots[parts[0]]
	if !ok {
		root = &Node{Name: parts[0], path: parts[0], Arc: 1 + len(t.roots), children: map[string]*Node{}}
		t.roots[parts[0]] = root
		t.byOID[root.OID().String()] = root
	}
	cur := root
	for _, part := range parts[1:] {
		next, ok := cur.children[part]
		if !ok {
			arc := 1
			for _, sib := range cur.children {
				if sib.Arc >= arc {
					arc = sib.Arc + 1
				}
			}
			next = &Node{Name: part, path: cur.Path() + "." + part, Arc: arc, parent: cur, children: map[string]*Node{}}
			cur.children[part] = next
			t.byOID[next.OID().String()] = next
		}
		cur = next
	}
	return cur, nil
}

// Lookup resolves a dotted name to a node, or nil if absent. It walks
// the name's components in place: the linker and the model build look
// up every MIB name a specification writes.
func (t *Tree) Lookup(path string) *Node {
	part, rest, more := strings.Cut(path, ".")
	cur := t.roots[part]
	for cur != nil && more {
		part, rest, more = strings.Cut(rest, ".")
		cur = cur.children[part]
	}
	return cur
}

// LookupOID resolves an OID to a node, or nil.
func (t *Tree) LookupOID(oid OID) *Node { return t.byOID[oid.String()] }

// LookupSuffix resolves a name that may omit leading components: it first
// tries the full path, then searches for a unique node whose path ends in
// the given dotted suffix. NMSL examples write both "mgmt.mib.ip" and bare
// type names like "IpAddrEntry"; suffix lookup supports the latter.
func (t *Tree) LookupSuffix(path string) *Node {
	if n := t.Lookup(path); n != nil {
		return n
	}
	suffix := "." + path
	var found *Node
	for oidKey := range t.byOID {
		n := t.byOID[oidKey]
		p := n.Path()
		if strings.HasSuffix(p, suffix) {
			if found != nil {
				return nil // ambiguous
			}
			found = n
		}
	}
	return found
}

// Walk visits every node under (and including) the node at path in
// depth-first arc order. Walking a missing path is a no-op.
func (t *Tree) Walk(path string, visit func(*Node)) {
	n := t.Lookup(path)
	if n == nil {
		return
	}
	var rec func(*Node)
	rec = func(cur *Node) {
		visit(cur)
		for _, c := range cur.Children() {
			rec(c)
		}
	}
	rec(n)
}

// Roots returns the root nodes sorted by name.
func (t *Tree) Roots() []*Node {
	out := make([]*Node, 0, len(t.roots))
	for _, r := range t.roots {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the total number of nodes.
func (t *Tree) Len() int { return len(t.byOID) }

// standardLayout describes the IETF MIB-I of RFC 1066 to the depth the
// paper's examples reference, rooted at mgmt.mib
// (iso.org.dod.internet.mgmt.mib = 1.3.6.1.2.1). Group order follows the
// RFC: system(1), interfaces(2), at(3), ip(4), icmp(5), tcp(6), udp(7),
// egp(8).
var standardLayout = []string{
	"mgmt.mib.system.sysDescr",
	"mgmt.mib.system.sysObjectID",
	"mgmt.mib.system.sysUpTime",
	"mgmt.mib.interfaces.ifNumber",
	"mgmt.mib.interfaces.ifTable.ifEntry.ifIndex",
	"mgmt.mib.interfaces.ifTable.ifEntry.ifDescr",
	"mgmt.mib.interfaces.ifTable.ifEntry.ifType",
	"mgmt.mib.interfaces.ifTable.ifEntry.ifSpeed",
	"mgmt.mib.interfaces.ifTable.ifEntry.ifOperStatus",
	"mgmt.mib.at.atTable.atEntry.atIfIndex",
	"mgmt.mib.at.atTable.atEntry.atPhysAddress",
	"mgmt.mib.at.atTable.atEntry.atNetAddress",
	"mgmt.mib.ip.ipForwarding",
	"mgmt.mib.ip.ipDefaultTTL",
	"mgmt.mib.ip.ipInReceives",
	"mgmt.mib.ip.ipAddrTable.IpAddrEntry.ipAdEntAddr",
	"mgmt.mib.ip.ipAddrTable.IpAddrEntry.ipAdEntIfIndex",
	"mgmt.mib.ip.ipAddrTable.IpAddrEntry.ipAdEntNetMask",
	"mgmt.mib.ip.ipAddrTable.IpAddrEntry.ipAdEntBcastAddr",
	"mgmt.mib.ip.ipRoutingTable.ipRouteEntry.ipRouteDest",
	"mgmt.mib.ip.ipRoutingTable.ipRouteEntry.ipRouteNextHop",
	"mgmt.mib.icmp.icmpInMsgs",
	"mgmt.mib.icmp.icmpInErrors",
	"mgmt.mib.icmp.icmpInEchos",
	"mgmt.mib.tcp.tcpRtoAlgorithm",
	"mgmt.mib.tcp.tcpMaxConn",
	"mgmt.mib.tcp.tcpConnTable.tcpConnEntry.tcpConnState",
	"mgmt.mib.tcp.tcpConnTable.tcpConnEntry.tcpConnLocalAddress",
	"mgmt.mib.udp.udpInDatagrams",
	"mgmt.mib.udp.udpNoPorts",
	"mgmt.mib.egp.egpInMsgs",
	"mgmt.mib.egp.egpInErrors",
	"mgmt.mib.egp.egpNeighTable.egpNeighEntry.egpNeighState",
	"mgmt.mib.egp.egpNeighTable.egpNeighEntry.egpNeighAddr",
	// Additional MIB-I variables (arcs append after the entries above, so
	// earlier assignments stay stable).
	"mgmt.mib.system.sysContact",
	"mgmt.mib.system.sysName",
	"mgmt.mib.system.sysLocation",
	"mgmt.mib.interfaces.ifTable.ifEntry.ifMtu",
	"mgmt.mib.interfaces.ifTable.ifEntry.ifPhysAddress",
	"mgmt.mib.interfaces.ifTable.ifEntry.ifAdminStatus",
	"mgmt.mib.interfaces.ifTable.ifEntry.ifInOctets",
	"mgmt.mib.interfaces.ifTable.ifEntry.ifInUcastPkts",
	"mgmt.mib.interfaces.ifTable.ifEntry.ifInErrors",
	"mgmt.mib.interfaces.ifTable.ifEntry.ifOutOctets",
	"mgmt.mib.interfaces.ifTable.ifEntry.ifOutUcastPkts",
	"mgmt.mib.interfaces.ifTable.ifEntry.ifOutErrors",
	"mgmt.mib.ip.ipInHdrErrors",
	"mgmt.mib.ip.ipInAddrErrors",
	"mgmt.mib.ip.ipForwDatagrams",
	"mgmt.mib.ip.ipInDiscards",
	"mgmt.mib.ip.ipInDelivers",
	"mgmt.mib.ip.ipOutRequests",
	"mgmt.mib.ip.ipOutDiscards",
	"mgmt.mib.ip.ipReasmTimeout",
	"mgmt.mib.ip.ipRoutingTable.ipRouteEntry.ipRouteIfIndex",
	"mgmt.mib.ip.ipRoutingTable.ipRouteEntry.ipRouteMetric1",
	"mgmt.mib.ip.ipRoutingTable.ipRouteEntry.ipRouteType",
	"mgmt.mib.ip.ipRoutingTable.ipRouteEntry.ipRouteProto",
	"mgmt.mib.icmp.icmpOutMsgs",
	"mgmt.mib.icmp.icmpOutErrors",
	"mgmt.mib.icmp.icmpInDestUnreachs",
	"mgmt.mib.icmp.icmpOutEchoReps",
	"mgmt.mib.tcp.tcpActiveOpens",
	"mgmt.mib.tcp.tcpPassiveOpens",
	"mgmt.mib.tcp.tcpAttemptFails",
	"mgmt.mib.tcp.tcpEstabResets",
	"mgmt.mib.tcp.tcpCurrEstab",
	"mgmt.mib.tcp.tcpInSegs",
	"mgmt.mib.tcp.tcpOutSegs",
	"mgmt.mib.tcp.tcpRetransSegs",
	"mgmt.mib.tcp.tcpConnTable.tcpConnEntry.tcpConnLocalPort",
	"mgmt.mib.tcp.tcpConnTable.tcpConnEntry.tcpConnRemAddress",
	"mgmt.mib.tcp.tcpConnTable.tcpConnEntry.tcpConnRemPort",
	"mgmt.mib.udp.udpInErrors",
	"mgmt.mib.udp.udpOutDatagrams",
	"mgmt.mib.egp.egpOutMsgs",
	"mgmt.mib.egp.egpOutErrors",
	"mgmt.mib.egp.egpNeighTable.egpNeighEntry.egpNeighAs",
}

// Groups lists the eight MIB-I object groups in RFC order.
var Groups = []string{"system", "interfaces", "at", "ip", "icmp", "tcp", "udp", "egp"}

// MgmtOID is the registration-tree position of the mgmt subtree:
// iso.org.dod.internet.mgmt = 1.3.6.1.2 (RFC 1065). Object identifiers of
// standard-tree nodes are therefore genuine MIB-I OIDs: mgmt.mib.system
// is 1.3.6.1.2.1.1, and group arcs follow the RFC order.
var MgmtOID = OID{1, 3, 6, 1, 2}

// NewStandard returns a Tree pre-populated with the IETF MIB-I subset the
// paper's examples use, rooted at the real mgmt OID.
func NewStandard() *Tree {
	t := NewEmpty()
	if _, err := t.RegisterRoot("mgmt", MgmtOID); err != nil {
		panic("mib: standard root: " + err.Error())
	}
	for _, p := range standardLayout {
		if _, err := t.Register(p); err != nil {
			panic("mib: standard layout: " + err.Error())
		}
	}
	return t
}
