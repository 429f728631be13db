package lib

import "testing"

func TestLib(t *testing.T) {
	TestOnly()
	Widget{}.TestOnly()
	_ = TestOnlyGenerics(1)
	_ = Read(Options{Unset: 1})
}

// InTest is a method this _test.go file adds to a library type: a finding.
func (Widget) InTest() {}
