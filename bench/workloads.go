package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nmsl/internal/changespec"
	"nmsl/internal/configgen"
	"nmsl/internal/consistency"
	"nmsl/internal/megafleet"
	"nmsl/internal/netsim"
	"nmsl/internal/reconcile"
	"nmsl/internal/snmp"
)

var workloads = map[string]func() workload{
	"pipeline-10k": func() workload { return &pipeline{} },
	"edit-1k":      func() workload { return &editing{} },
	"recheck-star": func() workload { return &recheck{} },
	"fleet-lossy":  func() workload { return &lossy{} },
}

// workloadNames is the order workloads run and print in.
var workloadNames = []string{"pipeline-10k", "edit-1k", "recheck-star", "fleet-lossy"}

// verifyVerdict counts one verdict: it is right when the check ran and
// found exactly the violations the benchmark's model of the text
// predicts.
func (r *run) verifyVerdict(what string, rep *consistency.Report, err error, st *specText) {
	got := -1
	if rep != nil {
		got = len(rep.Violations)
	}
	r.verify(err == nil && got == st.violations(),
		"%s: %d violations (error %v), want %d", what, got, err, st.violations())
}

// netName names an operation's in-memory network; live networks must
// not share a name.
func (r *run) netName(i int) string {
	return fmt.Sprintf("%s-%d-%d", r.cfg.workload, r.cfg.seed, i)
}

// pipeline is pipeline-10k: the paper's 10,000-domain internet taken
// from specification text to a converged, verified fleet, every
// operation from scratch.
type pipeline struct{ st *specText }

func (w *pipeline) maxOps(r *run) int { return r.sz.pipelineOps }

func (w *pipeline) setup(r *run) error {
	var err error
	w.st, err = newSpecText(netsim.Params{
		Domains: r.sz.pipelineDomains, SystemsPerDomain: 2, NestingDepth: 1, Seed: r.cfg.seed,
	}, r.sz.pipelineBad, r.rng)
	if err != nil {
		return err
	}
	if err := r.guardInput("spec", w.st.sha256()); err != nil {
		return err
	}
	return r.probeSNMP()
}

func (w *pipeline) op(r *run, i int) error {
	err := w.once(r, i)
	// Each operation leaves a 20,000-agent fleet behind; collect it now
	// so that the next operation does not pay for it.
	r.do("bench.gc", runtime.GC)
	return err
}

func (w *pipeline) once(r *run, i int) error {
	var c *compiled
	var rep *consistency.Report
	var err error
	verdict := r.timed(func() {
		if c, err = r.compile("pipeline.nmsl", w.st.text); err == nil {
			rep, err = r.check(spanCheckCold, false, c, nil)
		}
	})
	r.verifyVerdict("pipeline verdict", rep, err, w.st)
	if err != nil {
		return err
	}
	_, _ = r.check(spanCheck, true, c, nil)
	r.probeSerialCheck(c)

	configs := r.timed(func() { r.generate(c.model) })

	// Hosting the agents is the harness's work, not the pipeline's: it
	// is left out of the operation's time and reported as its own layer.
	fl, err := r.buildFleet(c.model, r.netName(i), r.cfg.seed)
	if err != nil {
		return err
	}
	defer fl.Close()
	var roll *configgen.RolloutReport
	converge := r.timed(func() {
		if roll, _, err = r.rollout("configgen.rollout", c.model, fl, r.cfg.conc); err == nil {
			err = r.reconcileUntilInSync(c.model, fl, 1,
				reconcile.WithSweepWorkers(r.cfg.conc), reconcile.WithSeed(r.cfg.seed))
		}
	})
	if err != nil {
		return err
	}
	r.observeRollout(roll, converge)
	r.verifyFleet(fl, func(string) int64 { return 1 })
	r.sampleLiveHeap()
	r.observe("stage.verdict_ms", ms(verdict))
	r.observe("stage.configs_ms", ms(configs))
	r.observe("stage.converge_ms", ms(converge))
	r.endOp()
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// editing is edit-1k: a resident 1,000-domain specification taking a
// stream of single-declaration edits, each recompiled, diffed against
// the previous revision, re-checked incrementally and judged by one
// change contract, as nmsld does for an edited tenant.
type editing struct {
	st       *specText
	edits    []edit
	contract *changespec.Contract
	cache    *consistency.ResultCache
	prev     *compiled
	prevRep  *consistency.Report
}

// editStreamLen is how many edits a run draws up front; at 5 ms an edit
// that is more than any run's seconds can apply.
const editStreamLen = 4096

func (w *editing) maxOps(r *run) int {
	if r.sz.editOps > 0 {
		return r.sz.editOps
	}
	return editStreamLen
}

func (w *editing) setup(r *run) error {
	var err error
	w.st, err = newSpecText(netsim.Params{
		Domains: r.sz.editDomains, SystemsPerDomain: 2, NestingDepth: 1, Seed: r.cfg.seed,
	}, r.sz.editBad, r.rng)
	if err != nil {
		return err
	}
	w.edits = editStream(w.st.minutes, editStreamLen, r.rng)
	if err := r.guardInput("spec", w.st.sha256()); err != nil {
		return err
	}
	if err := r.guardInput("edits", editStreamSHA256(w.edits)); err != nil {
		return err
	}
	contracts, err := changespec.Parse("bench-guard.ncs", editContract(w.st.domains()))
	if err != nil {
		return err
	}
	w.contract = contracts[0]
	if w.prev, err = r.compile("edit.nmsl", w.st.text); err != nil {
		return err
	}
	w.cache = consistency.NewResultCache()
	w.prevRep, err = r.check(spanCheckCold, false, w.prev, w.cache)
	r.verifyVerdict("edit base verdict", w.prevRep, err, w.st)
	if err != nil {
		return err
	}
	_, _ = r.check(spanCheck, true, w.prev, nil)
	return nil
}

func (w *editing) op(r *run, i int) error {
	e := w.edits[i]
	var c *compiled
	var rep *consistency.Report
	var res *changespec.Result
	var err error
	r.do("bench.edit_text", func() { err = w.st.apply(e) })
	if err != nil {
		return err
	}
	r.timed(func() {
		if c, err = r.compile("edit.nmsl", w.st.text); err != nil {
			return
		}
		delta := r.diff(w.prev, c)
		rep = r.checkDelta(c, w.prevRep, delta, w.cache)
		res = r.verifyChange(w.prev, c, w.contract)
	})
	if err != nil {
		r.verify(false, "edit %d (%v dom%d): %v", i, e.kind, e.domain, err)
		return err
	}
	r.do("bench.verify_edit", func() {
		got, want := fmt.Sprint(violatedClauses(res)), fmt.Sprint(expectedClauses(e, w.st.domains()))
		r.verify(len(rep.Violations) == w.st.violations() && got == want,
			"edit %d (%v dom%d): %d violations, want %d; contract violates %s, want %s",
			i, e.kind, e.domain, len(rep.Violations), w.st.violations(), got, want)
	})
	w.prev, w.prevRep = c, rep
	r.sampleLiveHeap()
	r.endOp()
	return nil
}

// recheck is recheck-star: the checker alone, on the shape that is
// hardest for it. Every poller names its targets with a late-bound "*",
// so each reference has hundreds of candidate targets and the few
// inconsistent pollers yield thousands of violations to report.
type recheck struct {
	st *specText
	c  *compiled
}

func (w *recheck) maxOps(r *run) int { return r.sz.starOps }

func (w *recheck) setup(r *run) error {
	var err error
	w.st, err = newSpecText(netsim.Params{
		Domains: r.sz.starDomains, SystemsPerDomain: 2, NestingDepth: 1, StarTargets: true, Seed: r.cfg.seed,
	}, r.sz.starBad, r.rng)
	if err != nil {
		return err
	}
	if err := r.guardInput("spec", w.st.sha256()); err != nil {
		return err
	}
	if w.c, err = r.compile("star.nmsl", w.st.text); err != nil {
		return err
	}
	rep, err := r.check(spanCheckCold, false, w.c, nil)
	r.verifyVerdict("star base verdict", rep, err, w.st)
	return err
}

func (w *recheck) op(r *run, i int) error {
	var rep *consistency.Report
	var err error
	r.timed(func() { rep, err = r.check(spanCheck, false, w.c, nil) })
	r.verifyVerdict("star re-check", rep, err, w.st)
	if err != nil {
		return err
	}
	r.probeSerialCheck(w.c)
	r.sampleLiveHeap()
	runtime.KeepAlive(rep) // a caller holds the report: it is part of the live heap
	r.endOp()
	return nil
}

// lossy is fleet-lossy: a journaled, staged rollout to 2,000 agents
// over lossy links, followed by a drift of 2 % of the agents and
// reconciler sweeps until the whole fleet is in sync again.
//
// The loss is mostly scheduled, not drawn: exactly one link in ten
// loses the first datagram sent to its agent, and another one in ten
// the first datagram its agent sends back, so every operation waits
// out the same number of timeouts and only their placement follows the
// seed. With loss drawn per datagram at the same rate, the number of
// timeouts (and now and then a target that exhausts its retries and
// costs a whole extra sweep) moved an operation's time by several
// percent from seed to seed, which is more than the changes the
// benchmark is meant to resolve. A light drawn loss stays on every
// link during the rollout so that installs, and not only fetches, are
// retried. The sweeps run over links that only duplicate: a sweep
// walks fixed shards of the fleet, so its time is that of the unluckiest
// shard, and a handful of drawn timeouts moved it by a factor of three.
type lossy struct {
	st *specText
	c  *compiled
}

func (w *lossy) maxOps(r *run) int { return r.sz.lossyOps }

const (
	// lossyWorkers is the number of rollout and sweep workers. The
	// workload waits for 50 ms timeouts rather than computing, so it does
	// not follow -conc: at two workers one operation takes 20 s, and a
	// run would hold a single sample.
	lossyWorkers        = 16
	lossyRetries        = 3
	lossyAttemptTimeout = 50 * time.Millisecond
	lossyMaxSweeps      = 10
)

// lossyFaults is the drawn part of the loss, on every link in both
// directions; lossyFirstShare is the share of links that lose their
// first datagram, in each direction.
var lossyFaults = snmp.Faults{Drop: 0.01, Duplicate: 0.02}

const lossyFirstShare = 0.10

func (w *lossy) setup(r *run) error {
	p, err := netsim.ScenarioParams(netsim.ScenarioInternet, r.sz.lossyAgents, r.cfg.seed)
	if err != nil {
		return err
	}
	if w.st, err = newSpecText(p, 1, r.rng); err != nil {
		return err
	}
	if err := r.guardInput("spec", w.st.sha256()); err != nil {
		return err
	}
	if w.c, err = r.compile("lossy.nmsl", w.st.text); err != nil {
		return err
	}
	rep, err := r.check(spanCheckCold, false, w.c, nil)
	r.verifyVerdict("lossy base verdict", rep, err, w.st)
	if err != nil {
		return err
	}
	r.generate(w.c.model)
	if err := r.probeSNMP(); err != nil {
		return err
	}
	return w.probeJournalShare(r)
}

func (w *lossy) rolloutOptions(r *run, journal string) []configgen.RolloutOption {
	opts := []configgen.RolloutOption{
		configgen.WithRetries(lossyRetries),
		configgen.WithBackoff(5*time.Millisecond, 50*time.Millisecond),
		configgen.WithAttemptTimeout(lossyAttemptTimeout),
		configgen.WithJitterSeed(r.cfg.seed),
	}
	if journal != "" {
		opts = append(opts, configgen.WithJournal(journal))
	}
	return opts
}

// journalPath returns a fresh journal file under the run's own
// directory.
func (r *run) journalPath(name string) (string, error) {
	dir := filepath.Join(r.cfg.outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return "", err
	}
	return path, nil
}

// probeJournalShare rolls out to a clean fleet with and without the
// journal, on the traced pass: the share of the journaled rollout the
// journal (and the pre-image fetch it brings) accounts for.
func (w *lossy) probeJournalShare(r *run) error {
	if r.tr == nil {
		return nil
	}
	var took [2]time.Duration
	for k, span := range []string{"configgen.rollout_clean", "configgen.rollout_clean_journaled"} {
		fl, err := megafleet.New(w.c.model, fmt.Sprintf("%s-clean-%d", r.cfg.workload, k), adminCommunity, r.cfg.seed)
		if err != nil {
			return err
		}
		journal := ""
		if k == 1 {
			if journal, err = r.journalPath("clean.journal"); err != nil {
				return err
			}
		}
		_, took[k], err = r.rollout(span, w.c.model, fl, lossyWorkers, w.rolloutOptions(r, journal)...)
		fl.Close()
		if err != nil {
			return err
		}
	}
	r.observe("configgen.journal_share", float64(took[1]-took[0])/float64(took[1]))
	return nil
}

func (w *lossy) op(r *run, i int) error {
	err := w.once(r, i)
	r.do("bench.gc", runtime.GC) // as in pipeline.op
	return err
}

func (w *lossy) once(r *run, i int) error {
	fl, err := r.buildFleet(w.c.model, r.netName(i), r.cfg.seed+int64(i))
	if err != nil {
		return err
	}
	defer fl.Close()
	rng := rand.New(rand.NewSource(r.cfg.seed + int64(i)))
	hosts := rng.Perm(len(fl.Targets))
	k := int(lossyFirstShare * float64(len(hosts)))
	for j, h := range hosts {
		in, out := lossyFaults, lossyFaults
		switch {
		case j < k:
			in.DropFirst = 1
		case j < 2*k:
			out.DropFirst = 1
		}
		fl.Net.Injector(fl.Targets[h].InstanceID).SetFaults(in, out)
	}
	journal, err := r.journalPath("rollout.journal")
	if err != nil {
		return err
	}

	var roll *configgen.RolloutReport
	rolled := r.timed(func() {
		roll, _, err = r.rollout("configgen.rollout", w.c.model, fl, lossyWorkers, w.rolloutOptions(r, journal)...)
	})
	if err != nil {
		return err
	}
	if fi, err := os.Stat(journal); err == nil {
		r.observe("configgen.journal_bytes", float64(fi.Size()))
	}

	// Drift exactly 2 % of the agents behind the manager's back, and
	// stop losing datagrams.
	for _, tgt := range fl.Targets {
		dup := snmp.Faults{Duplicate: lossyFaults.Duplicate}
		fl.Net.Injector(tgt.InstanceID).SetFaults(dup, dup)
	}
	drifted := map[string]bool{}
	blank := &snmp.Config{Communities: map[string]*snmp.CommunityConfig{}, AdminCommunity: adminCommunity}
	for _, k := range rng.Perm(len(fl.Targets))[:len(fl.Targets)/50] {
		id := fl.Targets[k].InstanceID
		drifted[id] = true
		fl.Agents[id].ApplyConfig(blank)
	}

	repaired := r.timed(func() {
		err = r.reconcileUntilInSync(w.c.model, fl, lossyMaxSweeps,
			reconcile.WithSweepWorkers(lossyWorkers), reconcile.WithSeed(r.cfg.seed),
			reconcile.WithRetries(lossyRetries), reconcile.WithAttemptTimeout(lossyAttemptTimeout))
	})
	if err != nil {
		return err
	}
	r.observeRollout(roll, rolled+repaired)
	// An agent loads its configuration once; a drifted one three times
	// (the install, the drift itself, the reconciler's repair).
	r.verifyFleet(fl, func(id string) int64 {
		if drifted[id] {
			return 3
		}
		return 1
	})
	r.sampleLiveHeap()
	r.endOp()
	return nil
}
