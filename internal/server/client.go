package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"deferstm/internal/kv"
)

// Client is a pipelined connection to a kvserver: requests go out
// without waiting for earlier responses, a demux goroutine matches
// responses back to callers by id, and any number of goroutines may
// share one Client (sends serialize on a mutex; waits don't). The
// synchronous methods (Get, Put, …) are one-request windows over the
// async core; a load generator keeps N requests in flight with
// Send/Recv pairs.
//
// Send only buffers its frame; a flusher goroutine writes the buffer
// out. A Send kicks the flusher unless a kick is already pending, and
// the Sends that follow before it runs join that flush, so a burst of
// pipelined requests costs one socket write. A synchronous call flushes
// inline: it is about to block on the response anyway.
type Client struct {
	nc net.Conn
	br *bufio.Reader

	mu      sync.Mutex // guards bw, frame, pending, nextID, err
	bw      *bufio.Writer
	frame   []byte // the frame being encoded
	pending map[uint64]chan Response
	nextID  uint64
	err     error // sticky: first transport failure

	kick        chan struct{} // capacity 1: a pending kick is a flush owed
	stop        chan struct{} // closed by Close: stops the flusher
	closeOnce   sync.Once
	readerDone  chan struct{}
	flusherDone chan struct{}
}

// Dial connects to a kvserver at addr.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(nc), nil
}

// newClient starts a Client's reader and flusher on nc.
func newClient(nc net.Conn) *Client {
	c := &Client{
		nc:          nc,
		br:          bufio.NewReaderSize(nc, 32<<10),
		bw:          bufio.NewWriterSize(nc, 32<<10),
		pending:     map[uint64]chan Response{},
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
		readerDone:  make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	go c.readLoop()
	go c.flushLoop()
	return c
}

// readLoop demultiplexes responses to their waiting callers. On
// transport failure it fails every in-flight call and every later one.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	var buf []byte
	for {
		payload, err := readFrameInto(c.br, DefaultMaxFrame, buf)
		if err == nil {
			buf = reusable(payload)
			var resp Response
			if resp, err = DecodeResponse(payload); err == nil {
				c.mu.Lock()
				ch, ok := c.pending[resp.ID]
				delete(c.pending, resp.ID)
				c.mu.Unlock()
				if !ok {
					err = fmt.Errorf("server: response for unknown id %d", resp.ID)
				} else {
					ch <- resp
					continue
				}
			}
		}
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		for id, ch := range c.pending {
			delete(c.pending, id)
			close(ch) // receivers translate a closed channel into c.err
		}
		c.mu.Unlock()
		return
	}
}

// flushLoop writes out what Send buffered, once per kick.
func (c *Client) flushLoop() {
	defer close(c.flusherDone)
	for {
		select {
		case <-c.kick:
		case <-c.stop:
			return
		}
		c.mu.Lock()
		if c.err == nil {
			if err := c.bw.Flush(); err != nil {
				c.failLocked(err)
			}
		}
		c.mu.Unlock()
	}
}

// failLocked records a write failure and closes the connection, so that
// readLoop fails every pending call: the requests buffered behind the
// failed write would otherwise wait for responses that never come.
// c.mu must be held.
func (c *Client) failLocked(err error) {
	if c.err == nil {
		c.err = err
	}
	c.nc.Close()
}

// Send issues req asynchronously: it assigns the id, buffers the frame
// for the flusher, and returns a channel that will carry the response.
// The channel is closed without a value if the connection fails first.
func (c *Client) Send(req Request) (<-chan Response, error) {
	return c.send(req, false)
}

// send buffers req's frame and, when now is set, writes the buffer out
// before it returns; otherwise it leaves the write to the flusher.
func (c *Client) send(req Request, now bool) (<-chan Response, error) {
	ch := make(chan Response, 1)
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return nil, c.err
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = ch
	c.frame = requestFrame(reusable(c.frame), req)
	_, err := c.bw.Write(c.frame)
	if err == nil && now {
		err = c.bw.Flush()
	}
	if err != nil {
		c.failLocked(err)
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, err
	}
	c.mu.Unlock()
	if !now {
		select {
		case c.kick <- struct{}{}:
		default: // a flush is already owed, and will carry this frame too
		}
	}
	return ch, nil
}

// Recv waits for the response on a Send channel, translating transport
// failure into an error.
func (c *Client) Recv(ch <-chan Response) (Response, error) {
	resp, ok := <-ch
	if !ok {
		return Response{}, c.transportErr()
	}
	if resp.Status != StatusOK {
		return resp, fmt.Errorf("server: %s", resp.Err)
	}
	return resp, nil
}

func (c *Client) transportErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return errors.New("server: connection closed")
}

func (c *Client) call(req Request) (Response, error) {
	ch, err := c.send(req, true)
	if err != nil {
		return Response{}, err
	}
	return c.Recv(ch)
}

// Get reads key.
func (c *Client) Get(key string) (string, bool, error) {
	resp, err := c.call(Request{Op: OpGet, Key: key})
	return resp.Val, resp.Found, err
}

// Put writes key=value and returns its LSN once it is durable (the
// server acks at the watermark — by the time this returns, the record
// survives a crash).
func (c *Client) Put(key, value string) (uint64, error) {
	resp, err := c.call(Request{Op: OpPut, Key: key, Val: value})
	return resp.LSN, err
}

// Del deletes key and returns the durable LSN. It is the wire client's
// entry point for DEL, kept beside Get, Put, Batch, Watch and Stats so
// that every op the protocol serves has one.
func (c *Client) Del(key string) (uint64, error) {
	resp, err := c.call(Request{Op: OpDel, Key: key})
	return resp.LSN, err
}

// Batch applies ops as one atomic, durable transaction. It is the wire
// client's entry point for BATCH, as Del is for DEL.
func (c *Client) Batch(ops []kv.Op) (uint64, error) {
	resp, err := c.call(Request{Op: OpBatch, Ops: ops})
	return resp.LSN, err
}

// Watch blocks until the server's durable watermark covers lsn and
// returns the watermark observed. It is the wire client's entry point
// for WATCH, as Del is for DEL.
func (c *Client) Watch(lsn uint64) (uint64, error) {
	resp, err := c.call(Request{Op: OpWatch, LSN: lsn})
	return resp.Water, err
}

// Stats fetches the server's stats snapshot.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.call(Request{Op: OpStats})
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	if err := json.Unmarshal([]byte(resp.Stats), &st); err != nil {
		return Stats{}, fmt.Errorf("server: stats payload: %w", err)
	}
	return st, nil
}

// Close tears the connection down, releases every waiter and stops the
// flusher. A request Sent but not yet flushed may never reach the
// server; Close does not wait to write it, because a flush blocked on a
// peer that stopped reading is exactly what closing must break.
func (c *Client) Close() error {
	err := c.nc.Close()
	c.closeOnce.Do(func() { close(c.stop) })
	<-c.readerDone
	<-c.flusherDone
	return err
}
