package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
)

// Session spill: parked session cores written beside the WAL on drain so a
// client's Resume survives the process, not just the connection. The file
// is a framed file like a checkpoint (writeFramed/readFramed: magic | len
// u32 | crc u32 | JSON, tmp+fsync+rename); replay-ring answers are carried as
// opaque wire-encoded bytes so this package stays below internal/wire in
// the import graph.
//
// The spill is a snapshot of one drain, not a log: the next process reads
// it once, adopts the sessions, and removes it. A torn or CRC-corrupt spill
// is reported as an error — the caller decides whether lost sessions abort
// a takeover (they never lose spend; clients fall back to a fresh handshake
// with an explicit unknown-extent gap).

const (
	sessMagic = "PPMSESS\n"
	// SessionSpillFile is the spill's file name inside a durable-state
	// directory.
	SessionSpillFile = "sessions.spill"
)

// SessionSpill is every parked session core exported at drain.
type SessionSpill struct {
	Sessions []SessionRecord `json:"sessions"`
}

// SessionRecord is one parked session: its resume token, owning tenant, and
// per-subscription replay state.
type SessionRecord struct {
	// Token is the session token a reconnecting client presents in Resume.
	Token string `json:"token"`
	// Tenant is the authenticated tenant the session belongs to.
	Tenant string `json:"tenant"`
	// ParkedAtMillis orders evictions across a restart (oldest first).
	ParkedAtMillis int64 `json:"parked_at_millis"`
	// Subs is the session's subscription set.
	Subs []SessionSub `json:"subs,omitempty"`
}

// SessionSub is one subscription's replay state.
type SessionSub struct {
	// ID is the client-chosen subscription id.
	ID uint64 `json:"id"`
	// Query is the runtime query name ("" = every query), so the adopting
	// process re-subscribes to exactly the stream of answers the old process
	// was bridging.
	Query string `json:"query"`
	// Head is the highest answer seq pushed into the replay ring; Cursor is
	// the last seq delivered to the client.
	Head   uint64 `json:"head"`
	Cursor uint64 `json:"cursor"`
	// RingStart is the seq of Ring[0]; Ring holds the retained undelivered
	// answers for seqs [RingStart, Head], wire-encoded (internal/wire
	// Answer payloads), oldest first.
	RingStart uint64   `json:"ring_start,omitempty"`
	Ring      [][]byte `json:"ring,omitempty"`
}

// WriteSessions persists sp through fsys as dir's session spill, replacing
// any previous spill.
func WriteSessions(fsys FS, dir string, sp *SessionSpill) error {
	payload, err := json.Marshal(sp)
	if err != nil {
		return fmt.Errorf("durable: marshal session spill: %w", err)
	}
	return writeFramed(fsys, filepath.Join(dir, SessionSpillFile), sessMagic, "session spill", payload)
}

// ReadSessions loads dir's session spill. A missing spill is (nil, nil) —
// the common cold-start case; a torn or corrupt spill is an error.
func ReadSessions(dir string) (*SessionSpill, error) {
	payload, err := readFramed(filepath.Join(dir, SessionSpillFile), sessMagic, "session spill")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var sp SessionSpill
	if err := json.Unmarshal(payload, &sp); err != nil {
		return nil, fmt.Errorf("durable: %s: %w", SessionSpillFile, err)
	}
	return &sp, nil
}

// RemoveSessions deletes dir's session spill once its sessions have been
// adopted (missing is fine).
func RemoveSessions(dir string) error {
	err := OS.Remove(filepath.Join(dir, SessionSpillFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}
