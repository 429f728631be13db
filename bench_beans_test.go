package repro

// The JavaBeans-flavoured event/listener model E3 prices port calls against
// — the comparison baseline of the paper's §3.2 and §6: "In the JavaBeans
// model, components notify other listener components by generating events.
// Components that wish to be notified of events register themselves as
// listeners with the target components."
//
// A bean exposes no SIDL-described contract, so there is nothing a component
// repository could type-check or a .ccl document could name and wire:
// composition happens by registering listeners in code, with payloads boxed
// as `any` and checked only at delivery time. An event delivery boxes its
// payload into an event value and fans it out to every registered listener,
// where a port call is a single typed dynamic dispatch. It lives here, not
// under internal/, because the benchmark is its only user.

import (
	"sync"
	"testing"
)

// beanEvent is a JavaBeans-style notification: a named occurrence on a
// source bean with an arbitrary boxed payload.
type beanEvent struct {
	Source  string
	Name    string
	Payload any
}

type beanListener interface {
	Notify(e beanEvent)
}

type beanListenerFunc func(e beanEvent)

func (f beanListenerFunc) Notify(e beanEvent) { f(e) }

// bean is an event source: listeners register per event name (or "*" for
// all events).
type bean struct {
	name string
	mu   sync.RWMutex
	// listeners[eventName] in registration order.
	listeners map[string][]beanListener
}

func newBean(name string) *bean {
	return &bean{name: name, listeners: map[string][]beanListener{}}
}

// AddListener registers l for the named event ("*" matches every event).
func (b *bean) AddListener(event string, l beanListener) {
	b.mu.Lock()
	b.listeners[event] = append(b.listeners[event], l)
	b.mu.Unlock()
}

// Fire synchronously delivers an event to every listener registered for its
// name and for "*", in registration order, and reports the delivery count.
func (b *bean) Fire(event string, payload any) int {
	e := beanEvent{Source: b.name, Name: event, Payload: payload}
	b.mu.RLock()
	named := b.listeners[event]
	wild := b.listeners["*"]
	// Copy under lock so listeners may register reentrantly.
	ls := make([]beanListener, 0, len(named)+len(wild))
	ls = append(append(ls, named...), wild...)
	b.mu.RUnlock()
	for _, l := range ls {
		l.Notify(e)
	}
	return len(ls)
}

func TestBeanFireDeliversInOrder(t *testing.T) {
	b := newBean("src")
	var got []int
	for i := 0; i < 3; i++ {
		i := i
		b.AddListener("tick", beanListenerFunc(func(beanEvent) { got = append(got, i) }))
	}
	if n := b.Fire("tick", nil); n != 3 || len(got) != 3 {
		t.Fatalf("delivered %d, got %v", n, got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order %v", got)
		}
	}
	if n := newBean("b").Fire("quiet", nil); n != 0 {
		t.Errorf("delivered %d with no listeners", n)
	}
}

func TestBeanFirePayloadAndWildcard(t *testing.T) {
	b := newBean("sensor")
	var seen beanEvent
	wild := 0
	b.AddListener("reading", beanListenerFunc(func(e beanEvent) { seen = e }))
	b.AddListener("*", beanListenerFunc(func(beanEvent) { wild++ }))
	b.Fire("reading", 42.5)
	b.Fire("other", nil)
	if seen.Source != "sensor" || seen.Name != "reading" || seen.Payload.(float64) != 42.5 {
		t.Errorf("event = %+v", seen)
	}
	if wild != 2 {
		t.Errorf("wildcard saw %d", wild)
	}
}

func TestBeanConcurrentFireAndRegister(t *testing.T) {
	b := newBean("b")
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			b.AddListener("e", beanListenerFunc(func(beanEvent) {
				mu.Lock()
				total++
				mu.Unlock()
			}))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			b.Fire("e", i)
		}
	}()
	wg.Wait()
	if n := b.Fire("e", nil); n != 100 {
		t.Errorf("%d listeners registered, want 100", n)
	}
}
