package server

import (
	"os"
	"path/filepath"
	"testing"

	"patterndp/internal/durable"
)

// TestSpillAdoptContract pins the edges of the restart seam: a missing spill
// adopts nothing without error, Spill writes even an empty spill (so a stale
// one never outlives the drain that superseded it), Adopt removes what it
// read, and an unreadable spill is an error that leaves the file in place.
func TestSpillAdoptContract(t *testing.T) {
	rt := newTestRuntime(t, 0)
	defer rt.Close()
	s, err := New(Config{Runtime: rt, Auth: TokenAuth(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, durable.SessionSpillFile)

	if n, err := s.Adopt(dir); n != 0 || err != nil {
		t.Fatalf("Adopt(no spill) = %d, %v; want 0, nil", n, err)
	}
	if n, err := s.Spill(dir); n != 0 || err != nil {
		t.Fatalf("Spill(no sessions) = %d, %v; want 0, nil", n, err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("empty spill not written: %v", err)
	}
	if n, err := s.Adopt(dir); n != 0 || err != nil {
		t.Fatalf("Adopt(empty spill) = %d, %v; want 0, nil", n, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Adopt left the spill behind: %v", err)
	}

	if err := os.WriteFile(path, []byte("not a spill"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Adopt(dir); err == nil {
		t.Fatal("Adopt(corrupt spill) succeeded")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("Adopt removed an unreadable spill: %v", err)
	}
}
