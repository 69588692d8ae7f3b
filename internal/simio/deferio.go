package simio

import (
	"deferstm/internal/core"
	"deferstm/internal/stm"
)

// This file provides the Deferrable encapsulations of I/O state that the
// paper's examples use:
//
//   - DeferFD    — Listing 3/4's defer_fprintf / defer_fd: a shared file
//     handle wrapped as a deferrable object;
//   - DeferBuffer — Listing 4's defer_buffer: a shared output buffer plus
//     a "written?" flag, enabling ordered durable output;
//   - DeferFile  — Listing 6's defer_file: input/output streams for one
//     named file, for the I/O microbenchmark.
//
// Per the paper's Section 4.3, if a file descriptor is shared it should be
// a field of a Deferrable object, and if the byte stream is shared it
// should be too; whether they live in one object or two is a granularity
// decision the programmer makes.

// DeferFD wraps a shared open file as a deferrable object.
type DeferFD struct {
	core.Deferrable
	fd stm.Var[*File]
}

// NewDeferFD wraps f.
func NewDeferFD(f *File) *DeferFD {
	d := &DeferFD{}
	d.fd.Init(f)
	return d
}

// FD returns the handle inside a transaction, subscribing first.
func (d *DeferFD) FD(tx *stm.Tx) *File {
	d.Subscribe(tx)
	return d.fd.Get(tx)
}

// DeferBuffer is Listing 4's defer_buffer: a shared byte buffer and a flag
// recording whether the buffer has been durably written. The flag is only
// ever set by a deferred operation, while the object's lock is held, so a
// transaction that subscribes and observes Flag()==true knows the durable
// write completed — the paper's ordered-fsync construction.
type DeferBuffer struct {
	core.Deferrable
	buf  stm.Var[[]byte]
	flag stm.Var[bool]
}

// NewDeferBuffer creates a DeferBuffer holding buf, flag=false.
func NewDeferBuffer(buf []byte) *DeferBuffer {
	d := &DeferBuffer{}
	d.buf.Init(buf)
	return d
}

// Buf returns the buffer inside a transaction, subscribing first.
func (d *DeferBuffer) Buf(tx *stm.Tx) []byte {
	d.Subscribe(tx)
	return d.buf.Get(tx)
}

// Flag reports the durable-write flag inside a transaction, subscribing
// first (so an in-flight deferred write blocks the reader until done —
// case (2) of the paper's Listing 4 discussion).
func (d *DeferBuffer) Flag(tx *stm.Tx) bool {
	d.Subscribe(tx)
	return d.flag.Get(tx)
}

// SetFlagDirect sets the flag from a deferred operation holding the lock.
func (d *DeferBuffer) SetFlagDirect(ctx *core.OpCtx, v bool) {
	core.Store(ctx, &d.flag, v)
}

// DeferFile is Listing 6's defer_file: the deferrable identity of one
// named file in a filesystem, used by the I/O microbenchmark. The deferred
// operation opens the file, reads its length, appends formatted content,
// and closes it — all while the object's lock is held.
type DeferFile struct {
	core.Deferrable
	FS   *FS
	Name string
}

// NewDeferFile creates the deferrable identity of name within fs, creating
// the file if it does not exist.
func NewDeferFile(fs *FS, name string) (*DeferFile, error) {
	if !fs.Exists(name) {
		f, err := fs.Create(name)
		if err != nil {
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return &DeferFile{FS: fs, Name: name}, nil
}
