// Package durable writes files that survive a crash or a power cut:
// the new content goes to a uniquely named temp file in the target's
// directory, is fsynced, renamed over the target, and the directory is
// fsynced so the new entry itself is on disk. A reader therefore sees
// either the previous file or the complete new one, never a torn one,
// and two concurrent writers of one path never share a temp file.
//
// Checkpoints, index artifacts and the service's job metadata all
// write through WriteFile (DESIGN.md §11).
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically and durably replaces path with what write
// produces: temp file (os.CreateTemp in path's directory), write, fsync,
// close, rename over path, fsync the directory. On any failure the temp
// file is removed and path is left as it was. The file is created with
// mode 0644.
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = f.Chmod(0o644)
	if err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so entries just created or renamed in it
// survive power loss. Filesystems that reject directory fsync (some
// network mounts answer EINVAL or ENOTSUP) are tolerated, matching the
// usual write-ahead-log practice: the rename itself still happened.
// A directory that cannot be opened is an error.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (os.IsPermission(err) || os.IsNotExist(err)) {
		return err
	}
	return nil
}
