package main

import (
	"sync"
	"testing"

	"patterndp/internal/event"
	"patterndp/internal/runtime"
	"patterndp/internal/server"
)

// answerLog is a runtime sink that keeps a copy of every published answer.
type answerLog struct {
	mu  sync.Mutex
	got []runtime.Answer
}

func (l *answerLog) Deliver(batch []runtime.Answer) {
	l.mu.Lock()
	l.got = append(l.got, batch...)
	l.mu.Unlock()
}

// TestDurableDrainFreezesOpenWindow drives the serve role's drain under
// -wal-dir twice on one directory, each time after a tenant ingested over a
// memory listener. A window still open at the first drain must not be
// published by it; the restart serves it once, with its panes from both
// processes, so no interval is released twice.
func TestDurableDrainFreezesOpenWindow(t *testing.T) {
	o, err := parseFlags("serve", []string{"-listen", "127.0.0.1:0", "-windows", "20", "-shards", "2",
		"-wal-dir", t.TempDir(), "-fsync", "off", "-checkpoint-every", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.check("serve"); err != nil {
		t.Fatal(err)
	}
	// serveAndDrain runs one process lifetime: serve ats as one tenant's
	// stream, then drain. It returns every answer the runtime published.
	serveAndDrain := func(ats ...func(w event.Timestamp) event.Timestamp) []runtime.Answer {
		t.Helper()
		rt, ds, err := buildRuntime(o, nil)
		if err != nil {
			t.Fatal(err)
		}
		log := &answerLog{}
		if _, err := rt.Attach("", log); err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Runtime: rt, Auth: server.TokenAuth(0)})
		if err != nil {
			t.Fatal(err)
		}
		ml := server.NewMemListener()
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ml) }()
		c, err := server.Connect(server.ClientConfig{Token: "alice", Dialer: ml.Dial})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var evs []event.Event
		for _, at := range ats {
			evs = append(evs, event.New(ds.Events()[0].Type, at(ds.Config.WindowWidth)).WithSource("s"))
		}
		if n, err := c.Ingest(evs); err != nil || n != len(evs) {
			t.Fatalf("Ingest = %d, %v; want %d, nil", n, err, len(evs))
		}
		if err := drain(srv, rt, nil, o); err != nil {
			t.Fatalf("drain: %v", err)
		}
		<-served
		log.mu.Lock()
		defer log.mu.Unlock()
		return log.got
	}
	// First process: window 0 closes; window 1 holds two events at drain.
	first := serveAndDrain(
		func(event.Timestamp) event.Timestamp { return 1 },
		func(w event.Timestamp) event.Timestamp { return w + 1 },
		func(w event.Timestamp) event.Timestamp { return w + 2 },
	)
	// Second process: one more event in window 1, then one that closes it.
	second := serveAndDrain(
		func(w event.Timestamp) event.Timestamp { return w + 5 },
		func(w event.Timestamp) event.Timestamp { return 2*w + 1 },
	)
	type release struct {
		query string
		start event.Timestamp
	}
	seen := map[release]int{}
	starts := func(as []runtime.Answer) map[event.Timestamp]int {
		m := map[event.Timestamp]int{}
		for _, a := range as {
			m[a.Start] = a.WindowIndex
			seen[release{a.Query, a.Start}]++
		}
		return m
	}
	s1, s2 := starts(first), starts(second)
	if len(s1) != 1 {
		t.Errorf("first process published windows starting at %v, want only window 0", s1)
	}
	if len(s2) != 1 {
		t.Errorf("restart published windows starting at %v, want only window 1", s2)
	}
	for start, idx := range s2 {
		if _, dup := s1[start]; dup || idx != 1 {
			t.Errorf("restart published the window at %d under index %d (first process: %v), want it once, as index 1", start, idx, s1)
		}
	}
	for r, n := range seen {
		if n != 1 {
			t.Errorf("query %s released the window at %d %d times", r.query, r.start, n)
		}
	}
}
