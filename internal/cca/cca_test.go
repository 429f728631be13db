package cca

import (
	"strings"
	"testing"
)

func TestConnectionIDString(t *testing.T) {
	id := ConnectionID{User: "u", UsesPort: "a", Provider: "p", ProvidesPort: "b"}
	if got := id.String(); got != "u.a -> p.b" {
		t.Errorf("String = %q", got)
	}
}

func TestEventKindStrings(t *testing.T) {
	cases := map[EventKind]string{
		EventComponentAdded:   "component-added",
		EventComponentRemoved: "component-removed",
		EventConnected:        "connected",
		EventDisconnected:     "disconnected",
		EventComponentFailed:  "component-failed",
		EventKind(99):         "event(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestEventListenerFunc(t *testing.T) {
	var got Event
	l := EventListenerFunc(func(e Event) { got = e })
	l.OnEvent(Event{Kind: EventConnected, Component: "x"})
	if got.Kind != EventConnected || got.Component != "x" {
		t.Errorf("event = %+v", got)
	}
}

func TestFlavorStringAndContains(t *testing.T) {
	f := FlavorInProcess | FlavorCollective
	s := f.String()
	if !strings.Contains(s, "in-process") || !strings.Contains(s, "collective") {
		t.Errorf("String = %q", s)
	}
	if Flavor(0).String() != "none" {
		t.Errorf("zero = %q", Flavor(0).String())
	}
	if !f.Contains(FlavorInProcess) || f.Contains(FlavorDistributed) {
		t.Error("Contains wrong")
	}
	if !f.Contains(0) {
		t.Error("everything contains the empty set")
	}
}

func TestSortedNames(t *testing.T) {
	m := map[string]int{"c": 1, "a": 2, "b": 3}
	got := SortedNames(m)
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("SortedNames = %v", got)
	}
}
