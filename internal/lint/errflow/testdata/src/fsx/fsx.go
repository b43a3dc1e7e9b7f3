// Stub of the internal/fsx seam for analyzer fixtures: just enough of
// the FS/File method sets for the errflow analyzer to resolve receiver
// types. Matching is by package NAME, so this stub exercises the same
// analyzer paths as the real internal/fsx.
package fsx

import "io/fs"

// File is the write-side file surface.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS is the filesystem seam.
type FS interface {
	Create(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm fs.FileMode) error
	SyncDir(dir string) error
	WriteFile(name string, data []byte, perm fs.FileMode) error
}
