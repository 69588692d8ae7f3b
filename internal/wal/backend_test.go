package wal

import (
	"bytes"
	"testing"

	"deferstm/internal/simio"
)

// growingFile reports a size smaller than what Read goes on to deliver:
// a live segment that an appender extended after Size was taken.
type growingFile struct {
	File
	short int64
}

func (f growingFile) Size() (int64, error) {
	n, err := f.File.Size()
	return n - f.short, err
}

type growingBackend struct {
	Backend
	short int64
}

func (b growingBackend) Open(name string) (File, error) {
	f, err := b.Backend.Open(name)
	return growingFile{f, b.short}, err
}

// TestReadWholeSizedOnce: readWhole takes the file's length first and
// reads into one buffer of that size — two device reads for a file of any
// length (the data, then EOF), where a fixed 32 KiB scratch took one per
// 32 KiB and regrew its result as it went — and still returns every byte
// of a file that grew after its length was taken.
func TestReadWholeSizedOnce(t *testing.T) {
	fs := simio.NewFS(simio.Latency{})
	b := NewSimBackend(fs)
	want := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MiB
	f, err := b.Create("seg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	before := fs.Stats().Reads
	got, err := readWhole(b, "seg")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("readWhole: %d bytes, err %v; want %d bytes", len(got), err, len(want))
	}
	if n := fs.Stats().Reads - before; n != 2 {
		t.Errorf("%d device reads for a %d-byte file, want 2", n, len(want))
	}
	if cap(got) > len(want)+1 {
		t.Errorf("result buffer holds %d bytes for a %d-byte file", cap(got), len(want))
	}

	for _, short := range []int64{1, 4096, int64(len(want))} {
		got, err := readWhole(growingBackend{b, short}, "seg")
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("file %d bytes longer than its reported size: read %d bytes, err %v; want %d",
				short, len(got), err, len(want))
		}
	}
	if got, err := readWhole(b, "absent"); err == nil {
		t.Errorf("readWhole of a missing file returned %d bytes and no error", len(got))
	}
}
