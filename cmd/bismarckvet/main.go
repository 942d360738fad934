// Command bismarckvet checks the bismarck tree against its own
// invariant: crash fidelity of deferred cleanups.
//
// Standalone:
//
//	go run ./cmd/bismarckvet ./...
//
// As a vet tool (cached per package by the go command):
//
//	go build -o "$(go env GOPATH)/bin/bismarckvet" ./cmd/bismarckvet
//	go vet -vettool="$(which bismarckvet)" ./...
package main

import (
	"os"

	"bismarck/internal/analysis"
	"bismarck/internal/analysis/framework"
)

func main() {
	os.Exit(framework.Main(analysis.Suite(), os.Args[1:], os.Stdout, os.Stderr))
}
