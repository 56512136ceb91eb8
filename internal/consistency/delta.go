package consistency

import (
	"sort"

	"nmsl/internal/ast"
	"nmsl/internal/obs"
	"nmsl/internal/sema"
)

// Incremental re-checking (the tentpole, layer 3). An edit to a large
// specification touches a handful of declarations; CheckDelta re-verifies
// only the references those declarations can influence and replays the
// previous report's verdicts for the rest. The dirtiness test is
// conservative: it consults the containment ancestry of both the old and
// the new model, so removed edges invalidate as reliably as added ones.

// ModelDelta names the model-level entities an edit touched. The zero
// value means "nothing changed"; Full or MIBChanged force a full
// re-check (every fingerprint depends on MIB paths, so a MIB edit
// invalidates globally).
type ModelDelta struct {
	// Full forces a complete re-check.
	Full bool
	// MIBChanged reports a change to the MIB name tree (type decls).
	MIBChanged bool
	// Domains, Systems, Processes name changed declarations; Instances
	// names changed instance IDs directly (e.g. from rollout plans).
	Domains   []string
	Systems   []string
	Processes []string
	Instances []string
}

// DeltaFromSpecs diffs two linked specifications into a ModelDelta. Type
// declaration changes mark the MIB changed (types extend the name tree),
// forcing a full re-check.
func DeltaFromSpecs(old, new *ast.Spec) *ModelDelta {
	sd := sema.DiffSpecs(old, new)
	return &ModelDelta{
		MIBChanged: len(sd.Types) > 0,
		Domains:    sd.Domains,
		Systems:    sd.Systems,
		Processes:  sd.Processes,
	}
}

// deltaSets is the delta in set form, plus the old model for ancestry
// lookups on removed containment edges.
type deltaSets struct {
	domains, systems, processes, instances map[string]bool
	oldModel                               *Model
}

func toSet(names []string) map[string]bool {
	if len(names) == 0 {
		return nil
	}
	s := make(map[string]bool, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

// partyTouched reports whether the party (an instance) is influenced by
// the delta: its own declaration site changed, or a changed domain
// contains it in either the old or the new model.
func (ds *deltaSets) partyTouched(m *Model, in *Instance) bool {
	if ds.instances[in.ID] || ds.processes[in.Proc.Name] {
		return true
	}
	if in.System != "" && ds.systems[in.System] {
		return true
	}
	if in.Domain != "" && ds.domains[in.Domain] {
		return true
	}
	var oldIn *Instance
	if ds.oldModel != nil {
		oldIn = ds.oldModel.byID[in.ID]
	}
	for d := range ds.domains {
		if m.co.instHasDom(in.idx, m.co.domID(d)) {
			return true
		}
		if oldIn != nil && ds.oldModel.co.instHasDom(oldIn.idx, ds.oldModel.co.domID(d)) {
			return true
		}
	}
	return false
}

// dirtyBits materializes the set of touched parties as a bitset over
// the model's dense instance indexes, reusing buf across calls. Deltas
// are tiny relative to the model, so directly-named instances resolve
// through the ID index; only name-level changes (processes, systems,
// domains) require a sweep over the instance table. Per-reference
// dirtiness then costs two bit probes — no map hashing, and no per-call
// allocation once the buffer is sized (the delta dirty-set leg of the
// per-worker arena).
func (ds *deltaSets) dirtyBits(m *Model, buf []uint64) []uint64 {
	n := (len(m.Instances) + 63) / 64
	if cap(buf) < n {
		buf = make([]uint64, n)
	} else {
		buf = buf[:n]
		clear(buf)
	}
	for id := range ds.instances {
		if in := m.byID[id]; in != nil {
			buf[in.idx>>6] |= 1 << (uint(in.idx) & 63)
		}
	}
	if len(ds.processes) == 0 && len(ds.systems) == 0 && len(ds.domains) == 0 {
		return buf
	}
	for _, in := range m.Instances {
		if buf[in.idx>>6]&(1<<(uint(in.idx)&63)) == 0 && ds.partyTouched(m, in) {
			buf[in.idx>>6] |= 1 << (uint(in.idx) & 63)
		}
	}
	return buf
}

// dirtyBit probes one instance index.
func dirtyBit(bits []uint64, idx int32) bool {
	return bits[idx>>6]&(1<<(uint(idx)&63)) != 0
}

// DirtyInstances materializes the instances of m the delta touches,
// sorted by ID — the same conservative dirty set CheckDelta re-checks
// (old, when non-nil and distinct from m, supplies the pre-edit
// containment ancestry so removed edges dirty as reliably as added
// ones). A nil delta, Full, or MIBChanged returns every instance,
// mirroring CheckDelta's fallback to a full re-check.
func (d *ModelDelta) DirtyInstances(m, old *Model) []*Instance {
	if m == nil {
		return nil
	}
	if d == nil || d.Full || d.MIBChanged {
		out := make([]*Instance, len(m.Instances))
		copy(out, m.Instances)
		sortInstancesByID(out)
		return out
	}
	ds := &deltaSets{
		domains:   toSet(d.Domains),
		systems:   toSet(d.Systems),
		processes: toSet(d.Processes),
		instances: toSet(d.Instances),
	}
	if old != nil && old != m {
		ds.oldModel = old
	}
	bits := ds.dirtyBits(m, nil)
	var out []*Instance
	for _, in := range m.Instances {
		if dirtyBit(bits, in.idx) {
			out = append(out, in)
		}
	}
	sortInstancesByID(out)
	return out
}

func sortInstancesByID(ins []*Instance) {
	sort.Slice(ins, func(i, j int) bool { return ins[i].ID < ins[j].ID })
}

// CheckDelta re-checks the model after an edit described by delta,
// reusing prev (the previous full report) for references the edit cannot
// have influenced. Dirty references — and references that did not exist
// before — are evaluated afresh (through the result cache when one is
// attached); clean references replay their previous verdicts with the Ref
// pointer rebound to the current model. Proxy and unresolved-target
// violations are always recomputed (they are cheap and global). The
// returned report is identical to a full Check of the current model.
//
// CheckDelta falls back to a full Check when prev is unusable (nil,
// truncated, from a cancelled or FailFast run) or the delta forces it
// (Full, or a MIB change, which shifts fingerprints globally).
func (c *Checker) CheckDelta(prev *Report, delta *ModelDelta) *Report {
	if prev == nil || delta == nil || delta.Full || delta.MIBChanged ||
		prev.Model == nil || prev.RefsChecked != len(prev.Model.Refs) {
		return c.Check()
	}
	ds := &deltaSets{
		domains:   toSet(delta.Domains),
		systems:   toSet(delta.Systems),
		processes: toSet(delta.Processes),
		instances: toSet(delta.Instances),
	}
	if prev.Model != c.m {
		ds.oldModel = prev.Model
	}

	// When the previous report is for another model (a rebuild), group
	// its reference-level violations by reference key up front; groups
	// queue up FIFO per key (duplicate references share a key and, by
	// construction, a verdict). The same-model warm path — the steady
	// state of a long-lived checker — needs no grouping structure at
	// all: violations are appended per reference in a contiguous run in
	// exactly the order the step is called in, so a single cursor over
	// prev.Violations reconstructs each reference's previous verdict
	// without hashing anything.
	d := deltaState{sameModel: prev.Model == c.m, pv: prev.Violations}
	if !d.sameModel {
		d.prevByKey = map[string][][]Violation{}
		d.prevKeys = make(map[string]bool, len(prev.Model.Refs))
		for i := range prev.Model.Refs {
			d.prevKeys[prev.Model.Refs[i].Key()] = true
		}
		for i := 0; i < len(prev.Violations); {
			v := prev.Violations[i]
			if v.Ref == nil {
				i++ // proxy/unresolved tail, recomputed below
				continue
			}
			j := i
			for j < len(prev.Violations) && prev.Violations[j].Ref == v.Ref {
				j++
			}
			k := v.Ref.Key()
			d.prevByKey[k] = append(d.prevByKey[k], prev.Violations[i:j])
			i = j
		}
	}
	c.deltaBits = ds.dirtyBits(c.m, c.deltaBits)
	d.bits = c.deltaBits
	// The cursor is sequential, so the step runs as a pool of one.
	rep := c.serial(func(ref *Ref, out *[]Violation) {
		var group []Violation
		if d.sameModel && d.cur < len(d.pv) && d.pv[d.cur].Ref == ref {
			j := d.cur + 1
			for j < len(d.pv) && d.pv[j].Ref == ref {
				j++
			}
			group, d.cur = d.pv[d.cur:j], j
		}
		clean := !dirtyBit(d.bits, ref.Source.idx) && !dirtyBit(d.bits, ref.Target.idx)
		if clean && !d.sameModel {
			if key := ref.Key(); d.prevKeys[key] {
				if gs := d.prevByKey[key]; len(gs) > 0 {
					group = gs[0]
					d.prevByKey[key] = gs[1:]
				}
			} else {
				clean = false // reference did not exist before
			}
		}
		if !clean {
			d.dirty++
			c.checkRefWith(ref, out, &d.sc)
			return
		}
		for _, v := range group {
			v.Ref = ref
			*out = append(*out, v)
		}
	})
	c.flush(&d.sc)
	if obs.Default.Enabled() {
		obs.Default.Counter(MetricCheckDeltaDirty).Add(d.dirty)
		obs.Default.Counter(MetricCheckDeltaReplayed).Add(int64(rep.RefsChecked) - d.dirty)
	}
	return rep
}

// deltaState is CheckDelta's per-reference step state, in one struct so
// that the step's closure captures one pointer: a closure loads every
// captured variable on entry, and this one runs per reference.
type deltaState struct {
	sc scratch
	// bits marks the dirty instances.
	bits []uint64
	// On the same model, cur walks the previous violations pv; after a
	// rebuild, prevKeys and prevByKey hold the previous references and
	// their violation groups.
	sameModel bool
	pv        []Violation
	cur       int
	prevKeys  map[string]bool
	prevByKey map[string][][]Violation
	dirty     int64
}
