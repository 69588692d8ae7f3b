package mempool

import (
	"sync"
	"testing"
	"testing/quick"
)

// cached reports how many buffers are parked on p's free lists.
func (p *Pool) cached() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for c := range p.classes {
		n += len(p.classes[c])
	}
	return n
}

func TestAllocBasic(t *testing.T) {
	p := New()
	buf := p.Alloc(100)
	if len(buf) != 100 {
		t.Errorf("len = %d, want 100", len(buf))
	}
	if cap(buf) != 128 {
		t.Errorf("cap = %d, want 128 (size class)", cap(buf))
	}
	s := p.Stats()
	if s.Allocs != 1 || s.Outstanding != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestReleaseAndReuse(t *testing.T) {
	p := New()
	buf := p.Alloc(64)
	buf[0] = 0xAA
	p.Release(buf)
	if p.cached() != 1 {
		t.Errorf("cached = %d, want 1", p.cached())
	}
	buf2 := p.Alloc(64)
	if p.Stats().Reuses != 1 {
		t.Error("buffer not reused")
	}
	if &buf[0] != &buf2[0] {
		t.Error("reuse returned a different buffer")
	}
	if p.Stats().Outstanding != 1 {
		t.Errorf("outstanding = %d", p.Stats().Outstanding)
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		n         int
		wantClass int
		wantSize  int
	}{
		{0, 0, 64},
		{1, 0, 64},
		{64, 0, 64},
		{65, 1, 128},
		{4096, 6, 4096},
		{4097, 7, 8192},
		{1 << 22, numClasses - 1, 1 << 22},
		{1<<22 + 1, -1, 1<<22 + 1},
	}
	for _, c := range cases {
		gc, gs := classFor(c.n)
		if gc != c.wantClass || gs != c.wantSize {
			t.Errorf("classFor(%d) = (%d,%d), want (%d,%d)", c.n, gc, gs, c.wantClass, c.wantSize)
		}
	}
}

func TestOversizedNotCached(t *testing.T) {
	p := New()
	buf := p.Alloc(1<<22 + 1)
	if len(buf) != 1<<22+1 {
		t.Fatalf("len = %d", len(buf))
	}
	p.Release(buf)
	if p.cached() != 0 {
		t.Errorf("oversized buffer was cached")
	}
	if p.Stats().Outstanding != 0 {
		t.Errorf("outstanding = %d", p.Stats().Outstanding)
	}
}

func TestReleaseNilNoop(t *testing.T) {
	p := New()
	p.Release(nil)
	if s := p.Stats(); s.Frees != 0 {
		t.Errorf("nil release counted: %+v", s)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufs := make([][]byte, 0, 16)
			for i := 0; i < 500; i++ {
				bufs = append(bufs, p.Alloc(64+i%2048))
				if len(bufs) == 16 {
					for _, b := range bufs {
						p.Release(b)
					}
					bufs = bufs[:0]
				}
			}
			for _, b := range bufs {
				p.Release(b)
			}
		}()
	}
	wg.Wait()
	if s := p.Stats(); s.Outstanding != 0 {
		t.Errorf("outstanding = %d after all released", s.Outstanding)
	}
}

// Property: Alloc(n) always yields len == n and cap >= n, and cap is a
// power-of-two size class for in-range n.
func TestAllocLenCapProperty(t *testing.T) {
	p := New()
	f := func(raw uint16) bool {
		n := int(raw)%(1<<20) + 1
		buf := p.Alloc(n)
		ok := len(buf) == n && cap(buf) >= n
		p.Release(buf)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: release-then-alloc of the same class returns a buffer of the
// right length regardless of request sizes within the class.
func TestReuseSizeProperty(t *testing.T) {
	p := New()
	f := func(a, b uint8) bool {
		n1 := int(a)%64 + 1 // class 0
		n2 := int(b)%64 + 1 // class 0
		buf := p.Alloc(n1)
		p.Release(buf)
		buf2 := p.Alloc(n2)
		ok := len(buf2) == n2 && cap(buf2) == 64
		p.Release(buf2)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
