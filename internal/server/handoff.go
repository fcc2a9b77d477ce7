package server

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"patterndp/internal/durable"
	"patterndp/internal/wire"
)

// Partition handoff: streaming a frozen durable-state directory — final
// checkpoint, WAL segments, session spill — from a draining process to a
// takeover peer over Handoff frames. The sender walks the directory after
// Runtime.Freeze (nothing mutates it anymore), announces a manifest with
// per-file CRCs, streams bounded chunks, and commits with tallies plus the
// frozen ledger total. The receiver stages every file as a ".part" temp
// through durable.FS, verifies sizes and CRCs at commit, fsyncs each file,
// renames the set into place, fsyncs the directory, and only then acks — so a
// connection lost mid-stream (or a source that dies before commit, or a
// receiver that dies before its renames are durable) leaves the target
// without durable state and the source authoritative, while a source that
// dies after commit leaves the target complete. There is no state of the
// world in which both sides believe they own the partition with half the
// bytes.

// HandoffCrash injects a source-side crash at a handoff boundary: the source
// dying between protocol steps. Used by fault-injection tests.
type HandoffCrash int

const (
	// HandoffCrashNone runs the handoff to completion.
	HandoffCrashNone HandoffCrash = iota
	// HandoffCrashBeforeCommit dies after the last chunk but before
	// HandoffCommit: the receiver must discard the staged files and the
	// source directory remains authoritative.
	HandoffCrashBeforeCommit
	// HandoffCrashAfterCommit dies after HandoffCommit without reading the
	// Ack: the receiver has (or will have) the complete verified set and
	// adopts it.
	HandoffCrashAfterCommit
)

// errHandoffCrash marks an injected crash, distinguishable from real
// transfer failures in tests.
var errHandoffCrash = errors.New("server: handoff crash injected")

// IsHandoffCrash reports whether err is an injected handoff crash.
func IsHandoffCrash(err error) bool { return errors.Is(err, errHandoffCrash) }

// HandoffSummary describes one completed (or committed) handoff.
type HandoffSummary struct {
	// Source is the draining process's label from HandoffBegin.
	Source string
	// Files and Bytes count the transferred file set.
	Files int
	Bytes uint64
	// Sessions and Spend echo the HandoffCommit tallies: parked session
	// cores shipped, and the source ledger's total ε spend at freeze. The
	// adopter asserts recovered spend ≥ Spend.
	Sessions uint64
	Spend    float64
}

// SendHandoff streams dir's frozen durable state to the takeover peer on
// conn. token authenticates against the receiver's expected token; source is
// a label for the peer's logs; sessions and spend are the commit tallies the
// adopter checks its recovery against. crash injects a source death at a
// transfer boundary (tests). The directory must be quiescent: call after
// Runtime.Freeze and Server.Spill.
func SendHandoff(conn net.Conn, dir, token, source string, sessions int, spend float64, crash HandoffCrash) (HandoffSummary, error) {
	files, err := manifestDir(dir)
	if err != nil {
		return HandoffSummary{}, err
	}
	if len(files) == 0 {
		return HandoffSummary{}, fmt.Errorf("server: handoff: %s holds no durable state", dir)
	}
	sum := HandoffSummary{Source: source, Files: len(files), Sessions: uint64(sessions), Spend: spend}
	for _, f := range files {
		sum.Bytes += f.Size
	}
	begin := wire.HandoffBegin{Token: token, Source: source, Files: files}
	if err := wire.WriteFrame(conn, wire.THandoffBegin, wire.AppendHandoffBegin(nil, begin)); err != nil {
		return sum, fmt.Errorf("server: handoff begin: %w", err)
	}
	buf := make([]byte, wire.MaxHandoffChunk)
	var frame []byte
	for i, f := range files {
		if err := sendFile(conn, dir, uint64(i), f, buf, &frame); err != nil {
			return sum, err
		}
	}
	if crash == HandoffCrashBeforeCommit {
		conn.Close()
		return sum, fmt.Errorf("%w: before commit", errHandoffCrash)
	}
	commit := wire.HandoffCommit{Files: uint64(len(files)), Bytes: sum.Bytes, Sessions: uint64(sessions), Spend: spend}
	if err := wire.WriteFrame(conn, wire.THandoffCommit, wire.AppendHandoffCommit(nil, commit)); err != nil {
		return sum, fmt.Errorf("server: handoff commit: %w", err)
	}
	if crash == HandoffCrashAfterCommit {
		conn.Close()
		return sum, fmt.Errorf("%w: after commit", errHandoffCrash)
	}
	fr, err := wire.NewReader(conn).Next()
	if err != nil {
		return sum, fmt.Errorf("server: handoff ack: %w", err)
	}
	if fr.Type != wire.THandoffAck {
		return sum, fmt.Errorf("server: handoff ack: unexpected frame %v", fr.Type)
	}
	ack, err := wire.DecodeHandoffAck(fr.Payload)
	if err != nil {
		return sum, fmt.Errorf("server: handoff ack: %w", err)
	}
	if !ack.OK {
		return sum, fmt.Errorf("server: handoff refused by peer: %s", ack.Detail)
	}
	return sum, nil
}

// manifestDir builds the handoff manifest: every regular file in dir (no
// staging leftovers), sorted by name, with sizes and whole-file CRCs.
func manifestDir(dir string) ([]wire.HandoffFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: handoff: %w", err)
	}
	var files []wire.HandoffFile
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, ".part") {
			continue
		}
		size, crc, err := fileCRC(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("server: handoff: %w", err)
		}
		files = append(files, wire.HandoffFile{Name: name, Size: size, CRC: crc})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].Name < files[j].Name })
	return files, nil
}

func fileCRC(path string) (uint64, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, 0, err
	}
	return uint64(n), h.Sum32(), nil
}

// sendFile streams one manifest file as in-order chunks. The frozen file
// must still match its manifest size — a mismatch means the directory was
// not quiescent, which is a caller bug, not a transfer fault.
func sendFile(conn net.Conn, dir string, idx uint64, mf wire.HandoffFile, buf []byte, frame *[]byte) error {
	f, err := os.Open(filepath.Join(dir, mf.Name))
	if err != nil {
		return fmt.Errorf("server: handoff: %w", err)
	}
	defer f.Close()
	var off uint64
	for off < mf.Size {
		n, err := f.Read(buf)
		if n > 0 {
			ch := wire.HandoffChunk{File: idx, Offset: off, Data: buf[:n]}
			*frame = wire.AppendFrame((*frame)[:0], wire.THandoffChunk, wire.AppendHandoffChunk(nil, ch))
			if _, werr := conn.Write(*frame); werr != nil {
				return fmt.Errorf("server: handoff %s: %w", mf.Name, werr)
			}
			off += uint64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("server: handoff %s: %w", mf.Name, err)
		}
	}
	if off != mf.Size {
		return fmt.Errorf("server: handoff %s: file changed under transfer (%d of %d bytes)", mf.Name, off, mf.Size)
	}
	return nil
}

// ReceiveHandoff runs the takeover side of one handoff on conn: it stages
// the announced file set into dir (created if needed, and required to hold
// no prior durable state — a takeover target starts empty), verifies every
// size and CRC at commit, renames the set into place, and acks. On any
// failure the staged temps are removed and dir is left without durable
// state; the error tells the operator the source is still authoritative.
// HandoffBegin.Token must match expectToken (compared in constant time); an
// empty expectToken refuses every handoff.
func ReceiveHandoff(conn net.Conn, dir, expectToken string) (HandoffSummary, error) {
	return receiveHandoff(durable.OS, conn, dir, expectToken)
}

// receiveHandoff is ReceiveHandoff writing through fsys.
func receiveHandoff(fsys durable.FS, conn net.Conn, dir, expectToken string) (sum HandoffSummary, err error) {
	defer func() {
		if err != nil {
			// Best-effort refusal so the source logs the reason, then clean up.
			ack := wire.HandoffAck{Detail: err.Error()}
			wire.WriteFrame(conn, wire.THandoffAck, wire.AppendHandoffAck(nil, ack)) //nolint:errcheck
			removeStaged(fsys, dir)
		}
	}()
	r := wire.NewReader(conn)
	fr, err := r.Next()
	if err != nil {
		return sum, fmt.Errorf("server: takeover: %w", err)
	}
	if fr.Type != wire.THandoffBegin {
		return sum, fmt.Errorf("server: takeover: expected handoff-begin, got %v", fr.Type)
	}
	begin, err := wire.DecodeHandoffBegin(fr.Payload)
	if err != nil {
		return sum, fmt.Errorf("server: takeover: %w", err)
	}
	if expectToken == "" || subtle.ConstantTimeCompare([]byte(begin.Token), []byte(expectToken)) != 1 {
		return sum, fmt.Errorf("server: takeover: bad handoff token")
	}
	sum.Source = begin.Source
	if err := validateManifest(begin.Files); err != nil {
		return sum, err
	}
	if err := prepareDir(dir); err != nil {
		return sum, err
	}
	type staged struct {
		f       durable.File
		written uint64
		crc     uint32
	}
	files := make([]*staged, len(begin.Files))
	defer func() {
		for _, st := range files {
			if st != nil && st.f != nil {
				st.f.Close()
			}
		}
	}()
	for i, mf := range begin.Files {
		f, err := fsys.OpenFile(filepath.Join(dir, mf.Name+".part"), os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
		if err != nil {
			return sum, fmt.Errorf("server: takeover: %w", err)
		}
		files[i] = &staged{f: f}
	}
	var commit wire.HandoffCommit
	for {
		fr, err := r.Next()
		if err != nil {
			return sum, fmt.Errorf("server: takeover: stream ended before commit: %w", err)
		}
		if fr.Type == wire.THandoffCommit {
			commit, err = wire.DecodeHandoffCommit(fr.Payload)
			if err != nil {
				return sum, fmt.Errorf("server: takeover: %w", err)
			}
			break
		}
		if fr.Type != wire.THandoffChunk {
			return sum, fmt.Errorf("server: takeover: unexpected frame %v", fr.Type)
		}
		ch, err := wire.DecodeHandoffChunk(fr.Payload)
		if err != nil {
			return sum, fmt.Errorf("server: takeover: %w", err)
		}
		if ch.File >= uint64(len(files)) {
			return sum, fmt.Errorf("server: takeover: chunk for unknown file %d", ch.File)
		}
		st, mf := files[ch.File], begin.Files[ch.File]
		if ch.Offset != st.written {
			return sum, fmt.Errorf("server: takeover: %s: chunk at %d, expected %d", mf.Name, ch.Offset, st.written)
		}
		if st.written+uint64(len(ch.Data)) > mf.Size {
			return sum, fmt.Errorf("server: takeover: %s: overlong transfer", mf.Name)
		}
		if _, err := st.f.Write(ch.Data); err != nil {
			return sum, fmt.Errorf("server: takeover: %s: %w", mf.Name, err)
		}
		st.written += uint64(len(ch.Data))
		st.crc = crc32.Update(st.crc, crc32.IEEETable, ch.Data)
	}
	// Verify the complete set before anything is renamed into place.
	for i, mf := range begin.Files {
		st := files[i]
		if st.written != mf.Size {
			return sum, fmt.Errorf("server: takeover: %s: %d of %d bytes", mf.Name, st.written, mf.Size)
		}
		if st.crc != mf.CRC {
			return sum, fmt.Errorf("server: takeover: %s: CRC mismatch", mf.Name)
		}
		if err := st.f.Sync(); err != nil {
			return sum, fmt.Errorf("server: takeover: %s: %w", mf.Name, err)
		}
		if err := st.f.Close(); err != nil {
			return sum, fmt.Errorf("server: takeover: %s: %w", mf.Name, err)
		}
		st.f = nil
		sum.Bytes += st.written
	}
	sum.Files = len(begin.Files)
	if commit.Files != uint64(sum.Files) || commit.Bytes != sum.Bytes {
		return sum, fmt.Errorf("server: takeover: commit tallies %d files/%d bytes, received %d/%d",
			commit.Files, commit.Bytes, sum.Files, sum.Bytes)
	}
	sum.Sessions, sum.Spend = commit.Sessions, commit.Spend
	for _, mf := range begin.Files {
		final := filepath.Join(dir, mf.Name)
		if err = fsys.Rename(final+".part", final); err != nil {
			break
		}
	}
	if err == nil {
		err = fsys.SyncDir(dir)
	}
	if err != nil {
		// A set whose renames are not all durable is not adopted: unwind
		// them (prepareDir found dir empty, so every name is ours).
		for _, mf := range begin.Files {
			fsys.Remove(filepath.Join(dir, mf.Name)) //nolint:errcheck
		}
		return sum, fmt.Errorf("server: takeover: %w", err)
	}
	ack := wire.HandoffAck{OK: true, Files: uint64(sum.Files), Bytes: sum.Bytes}
	if err := wire.WriteFrame(conn, wire.THandoffAck, wire.AppendHandoffAck(nil, ack)); err != nil {
		// The set is complete and durable either way; the source merely
		// missed the confirmation (it treats that as its own failure and
		// keeps its directory — harmless, since only one side is started).
		return sum, nil
	}
	return sum, nil
}

// validateManifest vets announced file names: base names only, no staging
// suffixes, no duplicates.
func validateManifest(files []wire.HandoffFile) error {
	seen := make(map[string]struct{}, len(files))
	for _, mf := range files {
		name := mf.Name
		if name == "" || name == "." || name == ".." ||
			strings.ContainsAny(name, "/\\") || strings.HasSuffix(name, ".part") || strings.HasSuffix(name, ".tmp") {
			return fmt.Errorf("server: takeover: unsafe file name %q", name)
		}
		if _, dup := seen[name]; dup {
			return fmt.Errorf("server: takeover: duplicate file %q", name)
		}
		seen[name] = struct{}{}
	}
	return nil
}

// prepareDir creates the takeover directory and insists it holds no prior
// durable state: adopting a handoff into a directory with its own WAL would
// splice two histories.
func prepareDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: takeover: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("server: takeover: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".part") {
			continue // stale staging from an earlier failed takeover
		}
		return fmt.Errorf("server: takeover: directory %s not empty (%s)", dir, e.Name())
	}
	return nil
}

// removeStaged clears ".part" staging temps after a failed takeover.
func removeStaged(fsys durable.FS, dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".part") {
			fsys.Remove(filepath.Join(dir, e.Name())) //nolint:errcheck
		}
	}
}
