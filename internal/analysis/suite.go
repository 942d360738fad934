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
)

// Suite is every bismarckvet analyzer, in the order diagnostics group
// most usefully: ordering (the deadlocks), then crash fidelity. Release
// of admissions and name locks needs no analyzer: every acquisition is
// scoped (serve.Gate.Do, serve.Plane.Do/Go, sqlish withLock/withRLock).
func Suite() []*framework.Analyzer {
	return []*framework.Analyzer{
		lockorder.Analyzer,
		crashfidelity.Analyzer,
	}
}
