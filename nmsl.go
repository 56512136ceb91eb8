// Package nmsl is a Go implementation of NMSL, the Network Management
// Specification Language of Cohrs & Miller, "Specification and
// Verification of Network Managers for Large Internets" (SIGCOMM 1989).
//
// NMSL addresses configuration management for very large, multi-domain
// internets with two coupled aspects:
//
//   - Descriptive: specifications describe management data types
//     (ASN.1-based), processes (agents and applications, their supported
//     data, exports and queries), network elements and administrative
//     domains. The Compiler parses them against the paper's generalized
//     grammar and the Consistency Checker proves that every data
//     reference has a corresponding permission — including access-mode
//     and frequency (timing) constraints — or reports the immediate
//     causes of inconsistency.
//
//   - Prescriptive: from a consistent specification, Configuration
//     Generators derive per-agent configuration (communities, view
//     subtrees, minimum query intervals) and ship it to running
//     management agents over files or the management protocol itself.
//
// The typical flow:
//
//	c := nmsl.NewCompiler()
//	_ = c.CompileSource("site.nmsl", source)
//	spec, err := c.Finish()
//	if err != nil { ... }                      // syntax/semantic errors
//	report := spec.Check()                     // consistency proof
//	if report.Consistent() {
//	    configs := spec.AgentConfigs()         // prescriptive output
//	}
//
// Extensions (the paper's NMSL/EXT) are added with AddExtensionSource
// before compiling. Output-specific compiler actions ("consistency",
// "BartsSnmpd", "nvp", or extension-defined tags) run via Generate.
package nmsl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"nmsl/internal/ast"
	"nmsl/internal/audit"
	"nmsl/internal/changespec"
	"nmsl/internal/configgen"
	"nmsl/internal/consistency"
	"nmsl/internal/extension"
	"nmsl/internal/logic"
	"nmsl/internal/mib"
	"nmsl/internal/obs"
	"nmsl/internal/parser"
	"nmsl/internal/printer"
	"nmsl/internal/sema"
	"nmsl/internal/simrun"
	"nmsl/internal/snmp"
)

// Re-exported result types, so callers need only this package.
type (
	// Report is a consistency-check result.
	Report = consistency.Report
	// Violation is one immediate cause of inconsistency.
	Violation = consistency.Violation
	// Model is the checkable instance/reference/permission view.
	Model = consistency.Model
	// LoadReport estimates management traffic (the speculative role).
	LoadReport = consistency.LoadReport
	// LoadOptions tunes load estimation.
	LoadOptions = consistency.LoadOptions
	// Interval is an admissible-parameter interval from reverse solving.
	Interval = logic.Interval
	// AgentConfig is a generated agent configuration.
	AgentConfig = snmp.Config
	// Access is an NMSL access mode.
	Access = mib.Access
)

// Violation kinds (see consistency package for semantics).
const (
	KindNoPermission       = consistency.KindNoPermission
	KindAccessViolation    = consistency.KindAccessViolation
	KindFrequencyViolation = consistency.KindFrequencyViolation
	KindDomainRestriction  = consistency.KindDomainRestriction
	KindNoSupport          = consistency.KindNoSupport
	KindUnresolvedTarget   = consistency.KindUnresolvedTarget
)

// Access modes.
const (
	AccessAny       = mib.AccessAny
	AccessReadOnly  = mib.AccessReadOnly
	AccessWriteOnly = mib.AccessWriteOnly
	AccessNone      = mib.AccessNone
)

// Sentinel errors. Entry points that take caller-supplied names wrap
// these (AdmissiblePeriods, AuditAgent, Interop), so callers classify
// failures with errors.Is instead of matching message strings.
var (
	// ErrUnknownInstance: an instance ID names no instance.
	ErrUnknownInstance = consistency.ErrUnknownInstance
	// ErrUnresolvedName: a dotted MIB name does not resolve.
	ErrUnresolvedName = consistency.ErrUnresolvedName
	// ErrNotAgent: the instance exists but is not an agent.
	ErrNotAgent = consistency.ErrNotAgent
	// ErrFinished: the Compiler was used after Finish.
	ErrFinished = errors.New("nmsl: compiler already finished")
)

// CheckEngine selects the consistency evaluator for CheckContext.
type CheckEngine = consistency.Engine

// Check engines.
const (
	// EngineIndexed is the Go-side indexed checker (default; scales to
	// the paper's 10,000-domain goal).
	EngineIndexed = consistency.EngineIndexed
	// EngineLogic proves every reference through the CLP(R)-style logic
	// engine (the paper's reference semantics; slower but independent).
	// The containment and MIB closures are materialized as indexed fact
	// tables before solving.
	EngineLogic = consistency.EngineLogic
)

// Incremental checking re-exports.
type (
	// CheckCache memoizes per-reference verdicts across runs, keyed by
	// dependency fingerprints. Attach with WithCache or pass to
	// CheckDelta; persist with its SaveFile/LoadFile.
	CheckCache = consistency.ResultCache
	// CacheStats is a snapshot of a CheckCache's counters.
	CacheStats = consistency.CacheStats
	// ModelDelta names the declarations an edit touched, for CheckDelta.
	ModelDelta = consistency.ModelDelta
)

// NewCheckCache returns an empty verdict cache.
func NewCheckCache() *CheckCache { return consistency.NewResultCache() }

// Change-contract re-exports (Rela-style relational change
// verification; see internal/changespec).
type (
	// ChangeContract bounds what a specification edit may do: scope,
	// no widened access, no relaxed frequency bounds, instance and
	// permission churn limits.
	ChangeContract = changespec.Contract
	// ChangeViolation is one violated contract clause with the
	// offending delta entry.
	ChangeViolation = changespec.ContractViolation
	// ChangeResult is one contract evaluation over one edit.
	ChangeResult = changespec.Result
	// ChangeContractError aggregates a contract's violations; rollout
	// and CLI callers match it with errors.As.
	ChangeContractError = changespec.ContractError
)

// ParseChangeContracts parses change-contract source text
// (conventionally a .ncs file) into contracts for VerifyChange and
// configgen.WithChangeContract.
func ParseChangeContracts(name, src string) ([]*ChangeContract, error) {
	return changespec.Parse(name, src)
}

// VerifyChange evaluates contracts against the edit from old to s (the
// proposed revision), returning the computed delta and one result per
// contract. The evaluation is delta-scoped: on a small edit of a large
// internet it costs about as much as an incremental re-check.
func (s *Specification) VerifyChange(old *Specification, contracts ...*ChangeContract) (*ModelDelta, []*ChangeResult) {
	var oldModel *consistency.Model
	var delta *ModelDelta
	if old != nil {
		oldModel = old.model
		delta = DiffSpecs(old, s)
	}
	k := changespec.NewChecker(oldModel, s.model)
	results := make([]*ChangeResult, 0, len(contracts))
	for _, c := range contracts {
		results = append(results, k.Check(delta, c))
	}
	return delta, results
}

// DiffSpecs diffs two compiled specifications into a ModelDelta for
// CheckDelta. Position-only differences (reformatting) yield an empty
// delta; type-declaration changes mark the MIB changed, which forces a
// full re-check.
func DiffSpecs(old, new *Specification) *ModelDelta {
	return consistency.DeltaFromSpecs(old.spec, new.spec)
}

// CheckOption configures Specification.CheckContext.
type CheckOption func(*consistency.Options)

// WithWorkers bounds the check's worker pool. n <= 0 (the default)
// selects one worker per CPU.
func WithWorkers(n int) CheckOption {
	return func(o *consistency.Options) { o.Workers = n }
}

// WithEngine selects the evaluator: EngineIndexed (default) or
// EngineLogic.
func WithEngine(e CheckEngine) CheckOption {
	return func(o *consistency.Options) { o.Engine = e }
}

// WithOnViolation streams every violation to fn as it is found, before
// the Report is assembled — on 10,000-domain inputs the caller sees
// causes immediately instead of after the full scan. Invocations are
// serialized, but their order across shards is scheduling-dependent;
// only the Report ordering is deterministic.
func WithOnViolation(fn func(Violation)) CheckOption {
	return func(o *consistency.Options) { o.OnViolation = fn }
}

// WithFailFast stops the check once any violation has been recorded.
// The Report then holds at least one violation but is partial.
func WithFailFast() CheckOption {
	return func(o *consistency.Options) { o.FailFast = true }
}

// WithCache memoizes per-reference verdicts in c across runs (indexed
// engine only). A verdict is replayed only when the SHA-256 fingerprint
// of everything it depends on — the reference tuple, the target's
// support views, both parties' containment ancestry and the candidate
// permissions — is unchanged, so replays are always sound. Long-lived
// callers should bound the cache with CheckCache.SetMaxEntries, which
// trims least-recently-used verdicts past the cap (always enforced
// before SaveFile persists it).
func WithCache(c *CheckCache) CheckOption {
	return func(o *consistency.Options) { o.Cache = c }
}

// Observability re-exports, mirroring configgen's WithMetrics so the
// checker and the rollout share one convention: nil (the default)
// records into the process-wide default registry, MetricsDisabled turns
// instrumentation off entirely.
type (
	// MetricsRegistry collects counters, gauges and histograms
	// (internal/obs.Registry).
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time registry snapshot, embedded in
	// Report.Metrics and RolloutReport.Metrics.
	MetricsSnapshot = obs.Snapshot
)

// MetricsDisabled is the sentinel registry that disables
// instrumentation (including its clock reads).
var MetricsDisabled = obs.Disabled

// WithMetrics selects where the check's observability counters land:
// nil (the default) records into the default registry, MetricsDisabled
// turns instrumentation off. The run's own numbers are embedded in
// Report.Metrics unless disabled. This is the checker-side twin of
// configgen.WithMetrics.
func WithMetrics(reg *MetricsRegistry) CheckOption {
	return func(o *consistency.Options) { o.Metrics = reg }
}

// Output tags built into the compiler.
const (
	// OutputConsistency emits the logic facts of the descriptive aspect.
	OutputConsistency = consistency.OutputTag
	// OutputBartsSnmpd emits snmpd.conf-style configuration.
	OutputBartsSnmpd = configgen.TagBartsSnmpd
	// OutputNVP emits JSON name/value configuration.
	OutputNVP = configgen.TagNVP
)

// Compiler drives the two-pass NMSL compiler with the basic language and
// any installed extensions.
type Compiler struct {
	analyzer *sema.Analyzer
	finished bool
}

// NewCompiler returns a Compiler with the basic language and the built-in
// output actions (consistency, BartsSnmpd, nvp) installed.
func NewCompiler() *Compiler {
	a := sema.NewAnalyzer()
	consistency.RegisterOutput(a.Tables())
	configgen.RegisterOutput(a.Tables())
	return &Compiler{analyzer: a}
}

// AddExtensionSource installs NMSL/EXT extension declarations. Must be
// called before CompileSource for clauses the extension defines, and
// returns ErrFinished after Finish.
func (c *Compiler) AddExtensionSource(name, src string) error {
	if c.finished {
		return fmt.Errorf("%w: cannot add extension %q", ErrFinished, name)
	}
	exts, err := extension.ParseFile(name, src)
	if err != nil {
		return err
	}
	extension.InstallAll(c.analyzer.Tables(), exts)
	return nil
}

// CompileSource parses and analyzes one specification source. Syntax
// errors are returned immediately; semantic errors accumulate and are
// reported by Finish. After Finish the analyzer is sealed and
// CompileSource returns ErrFinished.
func (c *Compiler) CompileSource(name, src string) error {
	if c.finished {
		return fmt.Errorf("%w: cannot compile %q", ErrFinished, name)
	}
	f, err := parser.Parse(name, src)
	if err != nil {
		return err
	}
	c.analyzer.AnalyzeFile(f)
	return nil
}

// CompileFile reads and compiles a specification file.
func (c *Compiler) CompileFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return c.CompileSource(path, string(data))
}

// Finish links the compiled declarations and returns the Specification.
// The returned error aggregates all semantic errors. Finish seals the
// Compiler: further CompileSource/AddExtensionSource calls (and a second
// Finish) return ErrFinished.
func (c *Compiler) Finish() (*Specification, error) {
	if c.finished {
		return nil, ErrFinished
	}
	spec, err := c.analyzer.Finish()
	c.finished = true
	if err != nil {
		return nil, err
	}
	return &Specification{
		spec:     spec,
		analyzer: c.analyzer,
		model:    consistency.BuildModel(spec),
	}, nil
}

// Specification is a compiled, linked NMSL specification.
type Specification struct {
	spec     *ast.Spec
	analyzer *sema.Analyzer
	model    *consistency.Model
}

// AST exposes the typed specification model.
func (s *Specification) AST() *ast.Spec { return s.spec }

// Model exposes the consistency model (instances, references,
// permissions).
func (s *Specification) Model() *Model { return s.model }

// CheckContext runs the consistency check over a bounded worker pool,
// honoring ctx for cancellation and deadline:
//
//	rep, err := spec.CheckContext(ctx,
//	    nmsl.WithWorkers(8),
//	    nmsl.WithOnViolation(func(v nmsl.Violation) { log.Print(v) }))
//
// The model's references are partitioned into shards aligned to target
// instances and checked concurrently; a completed run returns a Report
// byte-identical to the serial checker regardless of worker count. When
// ctx is cancelled mid-check, the partial Report is returned together
// with ctx.Err(). A panic in a check worker, such as one raised by a
// WithOnViolation callback, halts the check and returns as an error
// carrying the panic value and the worker's stack.
func (s *Specification) CheckContext(ctx context.Context, opts ...CheckOption) (*Report, error) {
	var o consistency.Options
	for _, opt := range opts {
		opt(&o)
	}
	return consistency.CheckContext(ctx, s.model, o)
}

// Check runs the indexed consistency checker serially: one worker, no
// cancellation, metrics off. The Report is identical to
// CheckContext's; a panic inside the check is raised again here.
//
// Deprecated: use CheckContext, which adds cancellation, streaming,
// parallelism and caching; Check remains as a thin shim over it.
func (s *Specification) Check() *Report {
	rep, err := s.CheckContext(context.Background(),
		WithWorkers(1), WithMetrics(MetricsDisabled))
	if err != nil {
		panic(err)
	}
	return rep
}

// CheckDelta re-checks the specification after an edit described by
// delta (typically from DiffSpecs against the previous revision),
// reusing prev — the previous revision's full Report — for references
// the edit cannot have influenced. cache, when non-nil, additionally
// memoizes the re-evaluated references by dependency fingerprint. The
// returned Report is identical to a full Check; on a one-declaration
// edit of a large specification it arrives an order of magnitude faster.
func (s *Specification) CheckDelta(prev *Report, delta *ModelDelta, cache *CheckCache) *Report {
	chk := consistency.NewChecker(s.model)
	chk.Cache = cache
	return chk.CheckDelta(prev, delta)
}

// Generate runs the output-specific compiler actions for tag into w
// (paper section 6.2).
func (s *Specification) Generate(tag string, w io.Writer) error {
	return s.analyzer.Generate(tag, w)
}

// WriteConsistencyProgram writes the complete logic program the checker
// evaluates, derived facts and consistency rules, in Prolog/CLP(R)
// notation: the clauses of the program EngineLogic solves, before its
// closures are materialized.
func (s *Specification) WriteConsistencyProgram(w io.Writer) error {
	return consistency.BuildDBRecursive(s.model).Write(w)
}

// AgentConfigs derives per-agent-instance configurations (the
// prescriptive aspect). Keys are instance IDs such as
// "snmpdReadOnly@romano.cs.wisc.edu#0".
func (s *Specification) AgentConfigs() map[string]*AgentConfig {
	return configgen.Generate(s.model)
}

// EstimateLoad estimates steady-state management traffic (the checker's
// speculative role, section 4.2).
func (s *Specification) EstimateLoad(opts LoadOptions) *LoadReport {
	return consistency.EstimateLoad(s.model, opts)
}

// AdmissiblePeriods solves the consistency check in reverse: the query
// periods at which a prospective reference from srcInstance to data
// varPath on tgtInstance would be consistent (section 4.2).
func (s *Specification) AdmissiblePeriods(srcInstance, tgtInstance, varPath string, access Access) ([]Interval, error) {
	node := s.spec.MIB.LookupSuffix(varPath)
	if node == nil {
		return nil, fmt.Errorf("nmsl: MIB name %q: %w", varPath, ErrUnresolvedName)
	}
	if s.model.InstanceByID(srcInstance) == nil {
		return nil, fmt.Errorf("nmsl: source instance %q: %w", srcInstance, ErrUnknownInstance)
	}
	if s.model.InstanceByID(tgtInstance) == nil {
		return nil, fmt.Errorf("nmsl: target instance %q: %w", tgtInstance, ErrUnknownInstance)
	}
	return consistency.AdmissiblePeriods(s.model, srcInstance, tgtInstance, node, access), nil
}

// FormatIntervals renders an interval set, e.g. "[300, +inf)".
func FormatIntervals(ivs []Interval) string { return consistency.FormatIntervals(ivs) }

// Audit-related re-exports.
type (
	// AuditReport is the result of probing one live agent for adherence.
	AuditReport = audit.Report
	// AuditOptions tunes audit probing.
	AuditOptions = audit.Options
	// InteropReport is the result of driving every specified reference
	// against the live fleet.
	InteropReport = audit.InteropReport
)

// AuditAgent verifies that the running agent at addr adheres to what the
// specification prescribes for instance instID (the paper's "verifying
// that these specifications are actually being adhered to in the
// network").
func (s *Specification) AuditAgent(instID, addr string, opts AuditOptions) (*AuditReport, error) {
	return audit.Agent(s.model, instID, addr, opts)
}

// AuditAgentContext is AuditAgent under a context: probing stops as soon
// as ctx is done, returning the partial report with the context's error.
func (s *Specification) AuditAgentContext(ctx context.Context, instID, addr string, opts AuditOptions) (*AuditReport, error) {
	return audit.AgentContext(ctx, s.model, instID, addr, opts)
}

// Interop drives every reference of the specification against the live
// agents in addrs (instance ID -> host:port) and reports the references
// that fail — the empirical answer to "will the network managers
// interoperate correctly?".
func (s *Specification) Interop(addrs map[string]string, opts AuditOptions) (*InteropReport, error) {
	return audit.Interop(s.model, addrs, opts)
}

// InteropContext is Interop under a context: the sweep stops as soon as
// ctx is done, returning the partial report with the context's error.
func (s *Specification) InteropContext(ctx context.Context, addrs map[string]string, opts AuditOptions) (*InteropReport, error) {
	return audit.InteropContext(ctx, s.model, addrs, opts)
}

// Format renders the specification in canonical NMSL source form.
func (s *Specification) Format(w io.Writer) error {
	return printer.Fprint(w, s.spec)
}

// Simulation re-exports.
type (
	// SimOptions configure a virtual-time simulation run.
	SimOptions = simrun.Options
	// SimResult is a simulation outcome.
	SimResult = simrun.Result
)

// Simulate executes the specified internet over virtual time: in-process
// agents are configured per the specification and every reference issues
// queries at its declared frequency. The result accounts for every
// acceptance, rate contention and violation.
func (s *Specification) Simulate(opts SimOptions) (*SimResult, error) {
	return simrun.Run(s.model, opts)
}

// CheckSource is the one-shot convenience: compile a single source and
// check it.
func CheckSource(name, src string) (*Report, error) {
	c := NewCompiler()
	if err := c.CompileSource(name, src); err != nil {
		return nil, err
	}
	spec, err := c.Finish()
	if err != nil {
		return nil, err
	}
	return spec.Check(), nil
}
