package configgen

import "nmsl/internal/snmp"

// InternPool deduplicates structurally identical agent configurations by
// digest. At §1 scale a fleet generates one configuration per instance,
// but most instances share a handful of process shapes — interning folds
// 100k config payloads down to the distinct few, which is what keeps a
// 100k-agent fleet's reconciler targets and desired-state tables in
// memory. The returned pointer must be treated as immutable (clone
// before mutating, exactly as rollouts already do via DesiredConfig).
type InternPool map[string]*snmp.Config

// Intern returns the pooled instance structurally equal to cfg, adding
// cfg to the pool on first sight, and the digest it is pooled under. A
// nil cfg interns to nil and "".
func (p InternPool) Intern(cfg *snmp.Config) (*snmp.Config, string) {
	if cfg == nil {
		return nil, ""
	}
	d := cfg.Digest()
	if c, ok := p[d]; ok {
		return c, d
	}
	p[d] = cfg
	return cfg, d
}
