// Package lib is the caller audit's fixture library. Each comment says
// whether the audit must report the declaration.
package lib

import "fmt"

// Used is called from cmd/tool: not a finding.
func Used() int { return Read(Options{Set: 1}) + len(fmt.Sprint(Widget{})) }

// TestOnly is called only from lib_test.go: a finding.
func TestOnly() {}

// TestOnlyGenerics is instantiated only from lib_test.go: a finding.
func TestOnlyGenerics[T any](v T) T { return v }

// Widget is built by Used: not a finding.
type Widget struct{}

// String lets Widget satisfy fmt.Stringer: not a finding.
func (Widget) String() string { return "widget" }

// TestOnly is called only from lib_test.go: a finding.
func (Widget) TestOnly() {}

// Bound is reached only through gen.go's GoName literal: not a finding.
func (Widget) Bound() {}

// Declared is bound by name from api.sidl's declared(): not a finding.
func (Widget) Declared() {}

// Options is Read's option set: not a finding.
type Options struct {
	Set       int // set by Used: not a finding
	Unset     int // read by Read, set only by lib_test.go: a finding
	Defaulted int // defaulted only by Read, in its own package: a finding
	ToolSet   int // defaulted by cmd/tool, another package: not a finding
}

// Read is called by Used: not a finding.
func Read(o Options) int {
	if o.Defaulted <= 0 {
		o.Defaulted = 1
	}
	return o.Set + o.Unset + o.Defaulted + o.ToolSet
}

// unused is referenced nowhere: a finding.
func unused() {}

// WindowsOnly is called only from a windows file: not a finding.
func WindowsOnly() {}

// NoasmOnly is called only from a noasm file: not a finding.
func NoasmOnly() {}

// NestedOnly is called only from the nested module: not a finding.
func NestedOnly() {}
