// Package analysis assembles the bismarckvet analyzer suite: the
// project-specific static checks that prove the codebase's concurrency,
// resource, and crash-fidelity invariants at compile time. Each analyzer
// encodes an invariant that already has a runtime witness (a hammer or
// fault-injection test); the suite makes the same regression fail `go
// vet` before any test runs.
package analysis

import (
	"bismarck/internal/analysis/crashfidelity"
	"bismarck/internal/analysis/framework"
	"bismarck/internal/analysis/lockorder"
	"bismarck/internal/analysis/ticketpair"
)

// Suite is every bismarckvet analyzer, in the order diagnostics group
// most usefully: resource pairing first (the leaks), then ordering (the
// deadlocks), then crash fidelity.
func Suite() []*framework.Analyzer {
	return []*framework.Analyzer{
		ticketpair.Analyzer,
		lockorder.Analyzer,
		crashfidelity.Analyzer,
	}
}
