// Write-ahead journal for transactional rollouts. A journaled rollout
// records three kinds of durable facts, each as one fsync'd JSON line:
//
//	plan      — the full target list with each target's desired config
//	            digest, written before the first datagram leaves
//	preimage  — an agent's configuration as captured immediately before
//	            the rollout replaces it
//	result    — one target's final outcome (installed, failed, skipped,
//	            canceled, rolled-back) with the digest now in place
//	gate-failed — a canary wave's health gate rejected the wave
//
// The invariant the journal maintains: before any agent's configuration
// is overwritten, its pre-image is on disk; before the rollout believes
// a target done, its result is on disk. A process killed at any point
// therefore leaves a journal from which ResumeRollout can finish the run
// idempotently (targets whose installed digest already matches are
// skipped) and Rollback can restore every touched agent to its
// pre-image. A torn final line — the crash happened mid-write — is
// tolerated and ignored; any other malformed line is corruption and
// replay refuses the journal rather than guess.
package configgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"nmsl/internal/consistency"
	"nmsl/internal/obs"
	"nmsl/internal/snmp"
)

// Journal replay errors.
var (
	// ErrJournalEmpty means the journal has no complete records at all.
	ErrJournalEmpty = errors.New("configgen: journal is empty")
	// ErrJournalCorrupt means a complete (newline-terminated) record
	// failed to parse or violated the journal's invariants.
	ErrJournalCorrupt = errors.New("configgen: journal is corrupt")
)

// Record kinds.
const (
	recPlan     = "plan"
	recPreImage = "preimage"
	recResult   = "result"
	recGate     = "gate-failed"
)

// PlannedTarget is one target in the journal's plan record.
type PlannedTarget struct {
	Instance string `json:"instance"`
	Addr     string `json:"addr"`
	Admin    string `json:"admin,omitempty"`
	// Digest is the desired configuration's digest for this target.
	Digest string `json:"digest"`
}

// journalRecord is the on-disk shape of every journal line; Kind selects
// which fields are meaningful.
type journalRecord struct {
	Kind string `json:"kind"`
	// plan
	Targets []PlannedTarget `json:"targets,omitempty"`
	// preimage + result
	Instance string `json:"instance,omitempty"`
	Addr     string `json:"addr,omitempty"`
	Digest   string `json:"digest,omitempty"`
	// preimage
	Config json.RawMessage `json:"config,omitempty"`
	// result
	Status   string `json:"status,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// gate-failed
	Wave int    `json:"wave,omitempty"`
	Gate string `json:"gate,omitempty"`
}

// Journal is the append-side handle. A nil *Journal is valid and
// discards everything, so the rollout code never branches on whether
// journaling is enabled.
type Journal struct {
	mu     sync.Mutex
	f      *os.File
	nosync bool
}

// setNoSync turns off the per-record fsync (WithJournalNoSync): records
// still reach the OS page cache in order, so the journal survives a
// killed process — only a machine crash can lose the tail. Mega-fleet
// rollouts (10k targets ≈ 30k records) buy their throughput here.
func (j *Journal) setNoSync(on bool) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.nosync = on
}

// CreateJournal starts a fresh journal at path and makes the plan
// durable before returning. It refuses an existing file: a journal
// already on disk is evidence of an unfinished rollout, which must be
// resumed (or rolled back, or removed) deliberately, not overwritten.
func CreateJournal(path string, plan []PlannedTarget) (*Journal, error) {
	seen := make(map[string]bool, len(plan))
	for _, t := range plan {
		key := targetKey(t.Instance, t.Addr)
		if seen[key] {
			return nil, fmt.Errorf("configgen: journal plan has duplicate target %s@%s", t.Instance, t.Addr)
		}
		seen[key] = true
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("configgen: create journal: %w", err)
	}
	j := &Journal{f: f}
	if err := j.append(journalRecord{Kind: recPlan, Targets: plan}); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// openJournalAppend reopens an existing journal for appending (resume
// and rollback runs continue the same file).
func openJournalAppend(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("configgen: reopen journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// append marshals rec, writes it as one line and fsyncs before
// returning — the durability point every rollout step waits on.
func (j *Journal) append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("configgen: journal marshal: %w", err)
	}
	blob = append(blob, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(blob); err != nil {
		return fmt.Errorf("configgen: journal write: %w", err)
	}
	if !j.nosync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("configgen: journal sync: %w", err)
		}
	}
	return nil
}

// recordPreImage journals an agent's configuration as captured before
// the rollout touches it: blob is its MarshalConfig form, digest the
// digest of those bytes.
func (j *Journal) recordPreImage(tgt Target, blob []byte, digest string) error {
	if j == nil {
		return nil
	}
	return j.append(journalRecord{
		Kind:     recPreImage,
		Instance: tgt.InstanceID,
		Addr:     tgt.Addr,
		Digest:   digest,
		Config:   blob,
	})
}

// recordResult journals one target's final outcome.
func (j *Journal) recordResult(res TargetResult) error {
	if j == nil {
		return nil
	}
	rec := journalRecord{
		Kind:     recResult,
		Instance: res.Target.InstanceID,
		Addr:     res.Target.Addr,
		Digest:   res.Digest,
		Status:   res.Status.String(),
		Attempts: res.Attempts,
	}
	if res.Err != nil {
		rec.Error = res.Err.Error()
	}
	return j.append(rec)
}

// recordGate journals a wave's failed health gate.
func (j *Journal) recordGate(wave int, gateErr error) error {
	if j == nil {
		return nil
	}
	return j.append(journalRecord{Kind: recGate, Wave: wave, Gate: gateErr.Error()})
}

// Close releases the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// TargetState is what replay reconstructs for one planned target.
type TargetState struct {
	Planned PlannedTarget
	// PreImage is the configuration captured before the rollout touched
	// the agent (nil if the target was never reached). The first capture
	// wins: a resumed run's re-capture sees the half-rolled-out state,
	// not the true original.
	PreImage       *snmp.Config
	PreImageDigest string
	// HasResult distinguishes "no outcome journaled" from the zero
	// status.
	HasResult bool
	Status    RolloutStatus
	// InstalledDigest is the digest the result line recorded as now in
	// place.
	InstalledDigest string
	Attempts        int
}

// JournalState is a replayed journal.
type JournalState struct {
	// Plan is the target list in plan order.
	Plan []PlannedTarget
	// ByKey maps targetKey(instance, addr) to that target's state.
	ByKey map[string]*TargetState
	// GateFailed records whether a gate-failed line was journaled.
	GateFailed bool
	// Truncated reports a torn final line (crash mid-write) that replay
	// ignored.
	Truncated bool
}

// ReplayJournal reconstructs the rollout state a journal describes. It
// is strict about everything except the final line: a journal's records
// are each fsync'd whole, so only the last line can legitimately be torn
// by a crash — a malformed line anywhere else, a record for an unplanned
// target, or a pre-image whose digest does not match its config is
// corruption, and replay returns an error wrapping ErrJournalCorrupt
// rather than resume from a lie.
func ReplayJournal(r io.Reader) (*JournalState, error) {
	br := bufio.NewReader(r)
	st := &JournalState{ByKey: map[string]*TargetState{}}
	n := 0
	for {
		line, err := br.ReadBytes('\n')
		complete := err == nil
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("configgen: journal read: %w", err)
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			if !complete {
				break
			}
			continue
		}
		var rec journalRecord
		if uerr := json.Unmarshal(trimmed, &rec); uerr != nil {
			if !complete {
				// Torn final line: the crash interrupted the write; the
				// record never became durable, so it never happened.
				st.Truncated = true
				break
			}
			return nil, fmt.Errorf("%w: line %d: %v", ErrJournalCorrupt, n+1, uerr)
		}
		n++
		if rerr := applyRecord(st, rec, n); rerr != nil {
			if !complete {
				st.Truncated = true
				break
			}
			return nil, rerr
		}
		if !complete {
			break
		}
	}
	if n == 0 {
		return nil, ErrJournalEmpty
	}
	return st, nil
}

// applyRecord folds one parsed record into the replay state.
func applyRecord(st *JournalState, rec journalRecord, line int) error {
	if line == 1 {
		if rec.Kind != recPlan {
			return fmt.Errorf("%w: first record is %q, want %q", ErrJournalCorrupt, rec.Kind, recPlan)
		}
		st.Plan = rec.Targets
		for _, t := range rec.Targets {
			key := targetKey(t.Instance, t.Addr)
			if _, dup := st.ByKey[key]; dup {
				return fmt.Errorf("%w: plan has duplicate target %s@%s", ErrJournalCorrupt, t.Instance, t.Addr)
			}
			st.ByKey[key] = &TargetState{Planned: t}
		}
		return nil
	}
	switch rec.Kind {
	case recPlan:
		return fmt.Errorf("%w: line %d: second plan record", ErrJournalCorrupt, line)
	case recPreImage:
		ts, ok := st.ByKey[targetKey(rec.Instance, rec.Addr)]
		if !ok {
			return fmt.Errorf("%w: line %d: pre-image for unplanned target %s@%s", ErrJournalCorrupt, line, rec.Instance, rec.Addr)
		}
		cfg, err := snmp.UnmarshalConfig(rec.Config)
		if err != nil {
			return fmt.Errorf("%w: line %d: pre-image config: %v", ErrJournalCorrupt, line, err)
		}
		if cfg.Digest() != rec.Digest {
			return fmt.Errorf("%w: line %d: pre-image digest mismatch for %s", ErrJournalCorrupt, line, rec.Instance)
		}
		if ts.PreImage == nil { // first capture is the true pre-image
			ts.PreImage = cfg
			ts.PreImageDigest = rec.Digest
		}
		return nil
	case recResult:
		ts, ok := st.ByKey[targetKey(rec.Instance, rec.Addr)]
		if !ok {
			return fmt.Errorf("%w: line %d: result for unplanned target %s@%s", ErrJournalCorrupt, line, rec.Instance, rec.Addr)
		}
		status, err := parseRolloutStatus(rec.Status)
		if err != nil {
			return fmt.Errorf("%w: line %d: %v", ErrJournalCorrupt, line, err)
		}
		ts.HasResult = true
		ts.Status = status
		ts.InstalledDigest = rec.Digest
		ts.Attempts = rec.Attempts
		return nil
	case recGate:
		st.GateFailed = true
		return nil
	default:
		return fmt.Errorf("%w: line %d: unknown record kind %q", ErrJournalCorrupt, line, rec.Kind)
	}
}

// LoadJournal replays the journal file at path.
func LoadJournal(path string) (*JournalState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("configgen: open journal: %w", err)
	}
	defer f.Close()
	return ReplayJournal(f)
}

// planTargets converts the journal's plan back into rollout targets.
func planTargets(plan []PlannedTarget) []Target {
	targets := make([]Target, len(plan))
	for i, t := range plan {
		targets[i] = Target{InstanceID: t.Instance, Addr: t.Addr, AdminCommunity: t.Admin}
	}
	return targets
}

// ResumeRollout finishes a journaled rollout that was killed mid-flight:
// it replays the journal at journalPath, takes the target list from the
// plan record, and re-runs the rollout idempotently — targets whose
// journaled result already shows the desired digest installed are
// satisfied without a datagram, targets the crash caught between install
// and result-write are detected by their live digest (the pre-image
// capture re-reads it) and not applied twice, and everything else is
// installed normally. New outcomes are appended to the same journal.
// The model must be the one the original rollout distributed; a drifted
// model simply means the digests differ and those targets re-install.
func ResumeRollout(ctx context.Context, m *consistency.Model, journalPath string, opts ...RolloutOption) (*RolloutReport, error) {
	opt, err := applyRolloutOptions(opts)
	if err != nil {
		return nil, err
	}
	st, err := LoadJournal(journalPath)
	if err != nil {
		return nil, err
	}
	j, err := openJournalAppend(journalPath)
	if err != nil {
		return nil, err
	}
	opt.journal = j
	opt.journalPath = journalPath
	opt.resumed = make(map[string]string)
	for key, ts := range st.ByKey {
		if ts.HasResult && ts.Status == StatusInstalled {
			opt.resumed[key] = ts.InstalledDigest
		}
	}
	targets := planTargets(st.Plan)
	return rolloutRun(ctx, DesiredState(m, targets), targets, opt)
}

// Rollback restores every agent a journaled rollout touched to its
// journaled pre-image: targets with an installed result, and targets
// with a captured pre-image but no result at all (the crash window —
// the install may or may not have landed). Targets whose live digest
// already equals the pre-image are left alone. The report covers only
// the rollback candidates; OK() is false if any restore failed. The
// candidates run over the rollout's worker pool and record their results
// the way a rollout does: a panic in a restore or in the WithOnResult
// callback halts the rollback, the candidates left without a result are
// recorded canceled, and the panic returns as an *obs.PanicError,
// counted in nmsl_panics_total{site="rollout"}.
func Rollback(ctx context.Context, journalPath string, opts ...RolloutOption) (*RolloutReport, error) {
	opt, err := applyRolloutOptions(opts)
	if err != nil {
		return nil, err
	}
	st, err := LoadJournal(journalPath)
	if err != nil {
		return nil, err
	}
	j, err := openJournalAppend(journalPath)
	if err != nil {
		return nil, err
	}
	opt.journal = j
	defer j.Close()

	var targets []Target
	var pres []*snmp.Config
	for _, pt := range st.Plan {
		ts := st.ByKey[targetKey(pt.Instance, pt.Addr)]
		if ts == nil || ts.PreImage == nil {
			continue
		}
		if ts.HasResult && ts.Status != StatusInstalled {
			continue // never landed, or already rolled back
		}
		targets = append(targets, Target{InstanceID: pt.Instance, Addr: pt.Addr, AdminCommunity: pt.Admin})
		pres = append(pres, ts.PreImage)
	}

	start := time.Now()
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	reg := opt.metrics
	if reg == nil {
		reg = obs.Default
	}
	f := newFanout(targets, opt, cancel, reg)
	f.pool(waveSpan{0, len(targets)}, func(i int) {
		f.record(i, rollbackTarget(rctx, targets[i], pres[i], opt))
	})

	report := f.report
	for _, r := range report.Results {
		report.Attempts += r.Attempts
		switch r.Status {
		case StatusRolledBack:
			report.RolledBack++
		case StatusFailed:
			report.Failed++
		case StatusCanceled:
			report.Canceled++
		}
	}
	report.Duration = time.Since(start)
	switch {
	case f.panicked != nil:
		return report, f.panicked
	case f.journalErr != nil:
		return report, fmt.Errorf("configgen: journal: %w", f.journalErr)
	}
	return report, ctx.Err()
}
