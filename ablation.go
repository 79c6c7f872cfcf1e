package v6lab

import (
	"v6lab/internal/analysis"
	"v6lab/internal/world"
)

// Options selects counterfactual mitigations for ablation studies — the
// remediations the paper recommends (§6): if every stack used RFC 8981
// privacy extensions, or probed every address per RFC 4862, how would the
// privacy findings change?
type Options struct {
	// ForcePrivacyExtensions makes every device use randomized interface
	// identifiers, eliminating EUI-64 addresses.
	ForcePrivacyExtensions bool
	// ForceDAD makes every device probe every address before use.
	ForceDAD bool
	// AAAAEverywhere publishes AAAA records for every destination domain,
	// modelling a fully v6-ready Internet (the paper's §5.1.3 root cause
	// removed).
	AAAAEverywhere bool
}

// NewWithOptions builds a lab with the given mitigations applied to every
// device profile (and, for AAAAEverywhere, to the simulated Internet).
// Functional options (WithDevices, WithFaultProfile, ...) compose with the
// ablations. An active ablation builds a private World and mutates it
// before any study exists, so a shared Env's World is never touched; every
// part the lab runs sees the counterfactual.
func NewWithOptions(opts Options, extra ...Option) *Lab {
	o := collectOptions(extra)
	if !opts.ForcePrivacyExtensions && !opts.ForceDAD && !opts.AAAAEverywhere {
		return newLab(o, nil)
	}
	w := world.Build(o.devices)
	for _, p := range w.Profiles {
		if opts.ForcePrivacyExtensions {
			p.EUI64 = false
			p.EUI64GUA = false
			p.EUI64ForDNS = false
			p.EUI64ForData = false
			p.EUI64Probe = false
			p.EUI64ForNTP = false
		}
		if opts.ForceDAD {
			p.SkipDADGUA = false
			p.SkipDADULA = false
			p.SkipDADLLA = false
		}
	}
	if opts.AAAAEverywhere {
		// Plan order is the order Build registered the domains in, so the
		// new AAAA endpoints are allocated deterministically.
		for _, pl := range w.Plans {
			for i := range pl.Specs {
				pl.Specs[i].HasAAAA = true
				w.Cloud.EnsureAAAA(pl.Specs[i].Name)
			}
		}
	}
	return newLab(o, w)
}

// EUI64Exposure is a convenience accessor for ablation comparisons.
func (l *Lab) EUI64Exposure() analysis.EUI64Report {
	l.ensure()
	return l.Data.EUI64Exposure()
}

// DADAudit is a convenience accessor for ablation comparisons.
func (l *Lab) DADAudit() analysis.DADReport {
	l.ensure()
	return l.Data.DADAudit()
}
