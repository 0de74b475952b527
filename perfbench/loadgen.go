package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the closed loop's connection count: each connection is one
// caller that waits for its reply before sending the next request.
const conns = 2

var (
	errResponse = errors.New("malformed HTTP response")
	errTooLarge = errors.New("response body too large")
)

// maxBody bounds one response body.
const maxBody = 64 << 20

// op is one completed request of a window.
type op struct {
	req     int32 // index into stream.reqs
	status  int   // HTTP status; 0 on a transport error
	latency int64 // ns from send to the last response byte
	// firstLine is ns from send to the first complete NDJSON line
	// (traced sweep requests only).
	firstLine int64
	// body locates the response body in its connection's arena.
	chunk            int32
	bodyOff, bodyLen int
	// mismatch marks a response that differed from its request's
	// verified canonical response (hot-queries).
	mismatch bool
	start    int64 // ns since the window began
}

// arenaChunk is the size of one response-body arena chunk. Bodies are
// appended to the current chunk; one that outgrows it moves to a fresh
// chunk, so keeping a window's bodies never copies more than one body.
const arenaChunk = 4 << 20

// connLog is one connection's record of a window.
type connLog struct {
	ops    []op
	chunks [][]byte
	// ci and off locate the body being read.
	ci, off int
}

// begin starts a body at the end of the current chunk.
func (l *connLog) begin() {
	if len(l.chunks) == 0 {
		l.chunks = append(l.chunks, make([]byte, 0, arenaChunk))
	}
	l.ci = len(l.chunks) - 1
	l.off = len(l.chunks[l.ci])
}

// readN appends exactly n bytes from r to the body being read and
// reports whether they held a newline.
func (l *connLog) readN(r io.Reader, n int) (newline bool, err error) {
	buf := l.chunks[l.ci]
	if len(buf)+n > cap(buf) {
		// Move the partial body to a fresh chunk with room for it.
		size := max(arenaChunk, 2*(len(buf)-l.off+n))
		fresh := append(make([]byte, 0, size), buf[l.off:]...)
		l.chunks[l.ci] = buf[:l.off]
		l.chunks = append(l.chunks, fresh)
		l.ci, l.off, buf = len(l.chunks)-1, 0, fresh
	}
	dst := buf[len(buf) : len(buf)+n]
	if _, err := io.ReadFull(r, dst); err != nil {
		l.chunks[l.ci] = buf[:l.off]
		return false, err
	}
	l.chunks[l.ci] = buf[:len(buf)+n]
	return bytes.IndexByte(dst, '\n') >= 0, nil
}

// end returns the finished body's location.
func (l *connLog) end() (chunk int32, off, n int) {
	return int32(l.ci), l.off, len(l.chunks[l.ci]) - l.off
}

// abort discards the body being read.
func (l *connLog) abort() { l.chunks[l.ci] = l.chunks[l.ci][:l.off] }

// window is the outcome of running part of a stream closed-loop.
type window struct {
	logs [conns]*connLog
	// recs holds each connection's client spans (traced windows only).
	recs      [conns]*recorder
	elapsed   time.Duration
	exhausted bool
}

// body returns an op's response body.
func (w *window) body(conn int, o op) []byte {
	return w.logs[conn].chunks[o.chunk][o.bodyOff : o.bodyOff+o.bodyLen]
}

// loadgen drives one server over conns keep-alive connections. Each
// connection is a minimal HTTP/1.1 client: the request is written in
// one call and the response parsed from a buffered reader straight
// into the body arena, so the load generator spends as little of the
// shared CPU as it can and leaves the garbage collector little to do.
type loadgen struct {
	base string // http://host:port
	addr string // host:port
	st   *stream
	// canonical, when set, holds the verified response of each
	// distinct request; responses are compared to it instead of kept.
	canonical [][]byte
	cs        [conns]*rawConn
	// client serves the untimed GETs (/metrics).
	client *http.Client
}

func newLoadgen(base string, st *stream) *loadgen {
	lg := &loadgen{base: base, addr: base[len("http://"):], st: st, client: &http.Client{Timeout: 30 * time.Second}}
	for i := range lg.cs {
		lg.cs[i] = &rawConn{addr: lg.addr}
	}
	return lg
}

func (lg *loadgen) close() {
	for _, rc := range lg.cs {
		rc.close()
	}
	lg.client.CloseIdleConnections()
}

// rawConn is one keep-alive connection.
type rawConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
}

func (rc *rawConn) close() {
	if rc.c != nil {
		_ = rc.c.Close() // nothing is pending on a connection we give up
		rc.c = nil
	}
}

// ready dials if needed and arms the next exchange's deadline, so a
// stuck server fails the op rather than the run.
func (rc *rawConn) ready() error {
	if rc.c == nil {
		if err := rc.dial(); err != nil {
			return err
		}
	}
	if err := rc.c.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return fmt.Errorf("set deadline: %w", err)
	}
	return nil
}

func (rc *rawConn) dial() error {
	c, err := net.DialTimeout("tcp", rc.addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dial %s: %w", rc.addr, err)
	}
	rc.c = c
	if rc.br == nil {
		rc.br = bufio.NewReaderSize(c, 64<<10)
	} else {
		rc.br.Reset(c)
	}
	return nil
}

// frame builds the request's bytes in the connection's buffer.
func (rc *rawConn) frame(r *request) []byte {
	b := rc.wbuf[:0]
	b = append(b, "POST "...)
	b = append(b, r.path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, rc.addr...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(r.body)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, r.body...)
	rc.wbuf = b
	return b
}

// exchange writes one framed request and reads the response body into
// the log's arena. first is stamped when the first body newline
// arrives, if asked.
func (rc *rawConn) exchange(req []byte, l *connLog, firstLine bool, first *time.Time) (status int, err error) {
	if _, err := rc.c.Write(req); err != nil {
		return 0, fmt.Errorf("write request: %w", err)
	}
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, fmt.Errorf("read status: %w", err)
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, errResponse
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, errResponse
	}
	length, chunked, closing := -1, false, false
	for {
		h, err := rc.br.ReadSlice('\n')
		if err != nil {
			return 0, fmt.Errorf("read header: %w", err)
		}
		h = bytes.TrimRight(h, "\r\n")
		if len(h) == 0 {
			break
		}
		name, value, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			return 0, errResponse
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil || length < 0 {
				return 0, errResponse
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(value, []byte("close"))
		}
	}
	l.begin()
	if err := rc.body(l, length, chunked, firstLine, first); err != nil {
		l.abort()
		return 0, err
	}
	if closing {
		rc.close()
	}
	return status, nil
}

// body reads a Content-Length or chunked body into the arena.
func (rc *rawConn) body(l *connLog, length int, chunked, firstLine bool, first *time.Time) error {
	read := func(n int) error {
		if n > maxBody {
			return errTooLarge
		}
		nl, err := l.readN(rc.br, n)
		if nl && firstLine && first.IsZero() {
			*first = time.Now()
		}
		return err
	}
	if !chunked {
		if length < 0 {
			return errResponse
		}
		return read(length)
	}
	for {
		sz, err := rc.br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("read chunk size: %w", err)
		}
		sz, _, _ = bytes.Cut(bytes.TrimRight(sz, "\r\n"), []byte(";"))
		n, err := strconv.ParseInt(string(sz), 16, 64)
		if err != nil || n < 0 {
			return errResponse
		}
		if n == 0 {
			break
		}
		if err := read(int(n)); err != nil {
			return err
		}
		if _, err := rc.br.Discard(2); err != nil {
			return fmt.Errorf("read chunk end: %w", err)
		}
	}
	// Trailer section: lines until the empty one.
	for {
		t, err := rc.br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("read trailer: %w", err)
		}
		if len(bytes.TrimRight(t, "\r\n")) == 0 {
			return nil
		}
	}
}

// runOpts selects how a window runs.
type runOpts struct {
	// seq is the request sequence; cursor is shared across windows so
	// consecutive windows continue the stream.
	seq    []int32
	cursor *atomic.Int64
	// deadline stops issuing new requests; zero runs seq to the end.
	deadline time.Duration
	// firstLine stamps the first NDJSON line of each response.
	firstLine bool
	// spans records a span around every client call.
	spans bool
	// capHint sizes each connection's op log up front.
	capHint int
}

// run drives opts.seq closed-loop over conns connections.
func (lg *loadgen) run(ctx context.Context, opts runOpts) *window {
	w := &window{}
	var wg sync.WaitGroup
	start := time.Now()
	var lastEnd atomic.Int64
	var exhausted atomic.Bool
	for c := 0; c < conns; c++ {
		l := &connLog{ops: make([]op, 0, opts.capHint)}
		w.logs[c] = l
		var rec *recorder
		if opts.spans {
			rec = newRecorder(start, 2*opts.capHint)
			w.recs[c] = rec
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if opts.deadline > 0 && time.Since(start) >= opts.deadline {
					return
				}
				i := opts.cursor.Add(1) - 1
				if i >= int64(len(opts.seq)) {
					exhausted.Store(opts.deadline > 0)
					return
				}
				o := lg.do(lg.cs[c], l, opts.seq[i], start, opts.firstLine)
				l.ops = append(l.ops, o)
				if rec != nil {
					root := rec.add(span{name: "client.request", start: o.start, end: o.start + o.latency, parent: -1, req: int32(i)})
					if o.firstLine > 0 {
						rec.add(span{name: "sweep.first_line", start: o.start, end: o.start + o.firstLine, parent: root, req: int32(i)})
					}
				}
				end := o.start + o.latency
				for {
					cur := lastEnd.Load()
					if end <= cur || lastEnd.CompareAndSwap(cur, end) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Duration(lastEnd.Load())
	w.exhausted = exhausted.Load()
	return w
}

// do sends one request and records it. Only the exchange itself lies
// between the two clock readings.
func (lg *loadgen) do(rc *rawConn, l *connLog, ri int32, start time.Time, firstLine bool) op {
	o := op{req: ri}
	frame := rc.frame(&lg.st.reqs[ri])
	if err := rc.ready(); err != nil {
		rc.close()
		return o
	}
	var first time.Time
	t0 := time.Now()
	status, err := rc.exchange(frame, l, firstLine, &first)
	o.latency = int64(time.Since(t0))
	o.start = int64(t0.Sub(start))
	if err != nil {
		rc.close() // the connection's state is unknown; redial next time
		return o
	}
	if !first.IsZero() {
		o.firstLine = int64(first.Sub(t0))
	}
	o.status = status
	o.chunk, o.bodyOff, o.bodyLen = l.end()
	if lg.canonical != nil && status == http.StatusOK {
		o.mismatch = !bytes.Equal(l.chunks[o.chunk][o.bodyOff:o.bodyOff+o.bodyLen], lg.canonical[ri])
		l.abort()
		o.bodyLen = 0
	}
	return o
}

// get fetches a GET endpoint's body.
func (lg *loadgen) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lg.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	resp, err := lg.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %w %d", path, errBadStatus, resp.StatusCode)
	}
	return body, nil
}
