package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Checkpoints and the session spill share one framed-file layout:
//
//	magic (8) | len u32 | crc u32 (CRC32-IEEE of payload) | payload
//
// written to a temp name, fsynced, renamed into place and made durable with
// a directory fsync, so a crash mid-write leaves the previous file or a torn
// temp file. kind names the file in errors ("checkpoint", "session spill").

// writeFramed atomically replaces path with payload framed under magic. A nil
// error means the new file and its name are both durable.
func writeFramed(fsys FS, path, magic, kind string, payload []byte) error {
	var hdr [16]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.ChecksumIEEE(payload))
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("durable: %s: %w", kind, err)
	}
	if _, err = f.Write(hdr[:]); err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("durable: %s: %w", kind, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("durable: %s: %w", kind, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("durable: %s: %w", kind, err)
	}
	return nil
}

// readFramed returns the verified payload of the framed file at path. A
// read failure is returned unwrapped (so callers can test for a missing
// file); a wrong magic, a torn file or a CRC mismatch is an error naming it.
func readFramed(path, magic, kind string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	if len(data) < 16 || string(data[:8]) != magic {
		return nil, fmt.Errorf("durable: %s: not a %s", name, kind)
	}
	length := binary.LittleEndian.Uint32(data[8:])
	crc := binary.LittleEndian.Uint32(data[12:])
	if int(length) != len(data)-16 {
		return nil, fmt.Errorf("durable: %s: torn %s", name, kind)
	}
	payload := data[16:]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("durable: %s: %s CRC mismatch", name, kind)
	}
	return payload, nil
}
