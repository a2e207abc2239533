package obs

import "testing"

func TestObserverNilSafe(t *testing.T) {
	var o *Observer
	if o.Registry() != nil || o.Trace() != nil {
		t.Fatal("nil observer accessors must return nil")
	}
}

func TestNewObserverDefaults(t *testing.T) {
	o := NewObserver(Config{})
	if o.Registry() == nil {
		t.Fatal("default observer missing registry")
	}
	if o.Trace() != nil {
		t.Fatal("default observer must not record spans (opt-in via Spans)")
	}
	ow := NewObserver(Config{Spans: true})
	if ow.Trace() == nil {
		t.Fatal("Spans: true must enable the recorder")
	}
}
