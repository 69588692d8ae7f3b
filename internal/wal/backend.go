package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"deferstm/internal/simio"
)

// Backend abstracts the storage the log writes to: a directory of real
// files (OSBackend) or the simulated filesystem (SimBackend), whose
// latency model and crash injection drive the deterministic tests and
// benchmarks.
type Backend interface {
	// Create creates (truncating) name and opens it for writing.
	Create(name string) (File, error)
	// OpenAppend opens name positioned at its end, creating it if absent.
	OpenAppend(name string) (File, error)
	// Open opens name for reading from offset 0.
	Open(name string) (File, error)
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name to size bytes (recovery drops torn tails).
	Truncate(name string, size int64) error
	// Names lists existing file names in lexical order.
	Names() ([]string, error)
}

// File is one open log file.
type File interface {
	io.Reader
	io.Writer
	Fsync() error
	Close() error
	// Size reports the file's current length.
	Size() (int64, error)
}

// SimBackend adapts a *simio.FS. The zero value is unusable; wrap an FS
// with NewSimBackend.
type SimBackend struct{ FS *simio.FS }

// NewSimBackend wraps fs.
func NewSimBackend(fs *simio.FS) SimBackend { return SimBackend{FS: fs} }

type simFile struct{ *simio.File }

func (f simFile) Size() (int64, error) { return int64(f.Len()), nil }

func (b SimBackend) Create(name string) (File, error) {
	f, err := b.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return simFile{f}, nil
}

func (b SimBackend) OpenAppend(name string) (File, error) {
	f, err := b.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return simFile{f}, nil
}

func (b SimBackend) Open(name string) (File, error) {
	f, err := b.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return simFile{f}, nil
}

func (b SimBackend) Remove(name string) error { return b.FS.Remove(name) }

func (b SimBackend) Truncate(name string, size int64) error {
	return b.FS.Truncate(name, int(size))
}

func (b SimBackend) Names() ([]string, error) { return b.FS.Names(), nil }

// OSBackend stores log files in a real directory. Note that it does not
// fsync the directory after create/remove, so the existence of a
// just-created segment is not itself crash-durable on a real disk; the
// recovery protocol tolerates this (a missing empty segment loses no
// records), but belt-and-braces deployments would add directory syncs.
type OSBackend struct{ Dir string }

// NewOSBackend creates dir if needed and returns a backend rooted there.
func NewOSBackend(dir string) (OSBackend, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return OSBackend{}, fmt.Errorf("wal: backend dir: %w", err)
	}
	return OSBackend{Dir: dir}, nil
}

type osFile struct{ *os.File }

func (f osFile) Fsync() error { return f.Sync() }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (b OSBackend) Create(name string) (File, error) {
	f, err := os.Create(filepath.Join(b.Dir, name))
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (b OSBackend) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(filepath.Join(b.Dir, name), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o666)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (b OSBackend) Open(name string) (File, error) {
	f, err := os.Open(filepath.Join(b.Dir, name))
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (b OSBackend) Remove(name string) error {
	return os.Remove(filepath.Join(b.Dir, name))
}

func (b OSBackend) Truncate(name string, size int64) error {
	return os.Truncate(filepath.Join(b.Dir, name), size)
}

func (b OSBackend) Names() ([]string, error) {
	ents, err := os.ReadDir(b.Dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// readWhole reads all of name through the backend into one buffer sized
// from the file's length, with a byte to spare so the read that reports
// EOF needs no growth. A file that grew since Size was taken (a live
// segment under a tailing reader) is still read to its end.
func readWhole(b Backend, name string) ([]byte, error) {
	f, err := b.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, size+1)
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		n, err := f.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
