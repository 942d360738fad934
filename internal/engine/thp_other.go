//go:build !linux

package engine

// hugeRanges records nothing where the huge page hint is not available.
type hugeRanges struct{}

func adviseHuge[T any](*hugeRanges, []T) {}

func dropHuge[T any](*hugeRanges, []T) {}

func (*hugeRanges) withdraw() {}
