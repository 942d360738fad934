// Package analysis assembles the bismarckvet analyzer suite: the
// project-specific static checks that prove the codebase's crash-fidelity
// invariant at compile time. Each analyzer encodes an invariant that
// already has a runtime witness (a fault-injection test); the suite makes
// the same regression fail `go vet` before any test runs.
package analysis

import (
	"bismarck/internal/analysis/crashfidelity"
	"bismarck/internal/analysis/framework"
)

// Suite is every bismarckvet analyzer. The lock rules need none: release
// of admissions and name locks is scoped (serve.Gate.Do, serve.Plane.Do/Go,
// sqlish withLock/withRLock), nesting and output under a lock are refused
// or made impossible by sqlish.Session, and lock keys are a type only the
// normalizing constructor builds (DESIGN.md §6).
func Suite() []*framework.Analyzer {
	return []*framework.Analyzer{
		crashfidelity.Analyzer,
	}
}
