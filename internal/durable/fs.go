package durable

import "os"

// FS is the one seam through which the WAL, checkpoints, the session spill
// and the handoff receiver change the disk; they read through the os
// package. Production uses OS; tests rebuild the states a crash may leave.
type FS interface {
	// OpenFile opens name for writing with os.OpenFile's flags and mode 0644.
	OpenFile(name string, flag int) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name.
	Remove(name string) error
	// SyncDir fsyncs the directory dir, making the names created, renamed
	// and removed in it durable.
	SyncDir(dir string) error
}

// File is a file opened for writing through an FS.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OS is the production FS: the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int) (File, error) { return os.OpenFile(name, flag, 0o644) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
