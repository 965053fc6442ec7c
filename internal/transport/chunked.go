package transport

import (
	"encoding/binary"
	"time"

	"ncs/internal/buf"
)

// chunkedConn splits every outbound packet into chunks of at most
// chunkSize bytes and reassembles inbound chunks back into whole
// packets; its receives, blocking or polled, share one reassembly
// (partial), so a connection has one reader. It models a protocol stack
// that accepts only small writes (the SunOS-era TCP path that p4 and
// MPICH rode): layered under a platform tax, every chunk pays its own
// per-call costs, which is exactly the behaviour behind the SUN-4
// degradation in Figure 12.
type chunkedConn struct {
	inner Conn
	chunk int

	partial *buf.Buffer // inbound reassembly (owned until handed out)
}

var _ Conn = (*chunkedConn)(nil)

const chunkHeaderSize = 5 // 4-byte remaining-bytes counter + last flag

// Chunked wraps conn so packets are carried as chunkSize-byte segments.
// Both endpoints of a link must agree on using Chunked (the chunk sizes
// may differ). chunkSize must be positive.
func Chunked(conn Conn, chunkSize int) Conn {
	if chunkSize <= 0 {
		chunkSize = 1460
	}
	return &chunkedConn{inner: conn, chunk: chunkSize}
}

func (c *chunkedConn) Send(p []byte) error {
	total := len(p)
	if total == 0 {
		return c.sendChunk(nil, true)
	}
	for off := 0; off < total; off += c.chunk {
		hi := off + c.chunk
		if hi > total {
			hi = total
		}
		if err := c.sendChunk(p[off:hi], hi == total); err != nil {
			return err
		}
	}
	return nil
}

// SendBuf chunks the packet through pooled chunk buffers, then
// releases it.
func (c *chunkedConn) SendBuf(b *buf.Buffer) error {
	err := c.Send(b.B)
	b.Release()
	return err
}

// SendBatch forwards packet by packet: the chunk framing already
// interleaves per-chunk costs, which is the behaviour this wrapper
// exists to model, so batching below it would be self-defeating.
func (c *chunkedConn) SendBatch(bs []*buf.Buffer) error {
	return sendBatchSeq(c.SendBuf, bs)
}

// sendChunk stages one chunk in a pooled buffer and hands it down.
func (c *chunkedConn) sendChunk(body []byte, last bool) error {
	cb := buf.Get(chunkHeaderSize + len(body))
	binary.BigEndian.PutUint32(cb.B, uint32(len(body)))
	cb.B[4] = 0
	if last {
		cb.B[4] = 1
	}
	copy(cb.B[chunkHeaderSize:], body)
	return c.inner.SendBuf(cb)
}

func (c *chunkedConn) Recv() ([]byte, error) { return takeBytes(c.RecvBuf()) }

// RecvBuf reassembles chunks into a pooled buffer owned by the caller.
func (c *chunkedConn) RecvBuf() (*buf.Buffer, error) {
	for {
		raw, err := c.inner.RecvBuf()
		if err != nil {
			return nil, err
		}
		if done, msg, err := c.push(raw); done || err != nil {
			return msg, err
		}
	}
}

func (c *chunkedConn) RecvTimeout(d time.Duration) ([]byte, error) {
	return takeBytes(c.RecvBufTimeout(d))
}

func (c *chunkedConn) RecvBufTimeout(d time.Duration) (*buf.Buffer, error) {
	deadline := time.Now().Add(d)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, ErrRecvTimeout
		}
		raw, err := c.inner.RecvBufTimeout(remain)
		if err != nil {
			return nil, err
		}
		if done, msg, err := c.push(raw); done || err != nil {
			return msg, err
		}
	}
}

// TryRecvBuf takes the chunks that have arrived, keeping a packet's
// first chunks in partial until its last one comes.
func (c *chunkedConn) TryRecvBuf() (*buf.Buffer, error) {
	for {
		raw, err := c.inner.TryRecvBuf()
		if raw == nil {
			return nil, err
		}
		if done, msg, err := c.push(raw); done || err != nil {
			return msg, err
		}
	}
}

// SetRecvNotify hooks the inner connection's arrivals.
func (c *chunkedConn) SetRecvNotify(fn func()) { c.inner.SetRecvNotify(fn) }

// push consumes raw (releasing it) after copying its body into the
// pooled reassembly buffer; on the final chunk it hands the assembled
// packet to the caller.
func (c *chunkedConn) push(raw *buf.Buffer) (bool, *buf.Buffer, error) {
	defer raw.Release()
	if raw.Len() < chunkHeaderSize {
		return false, nil, ErrConnClosed
	}
	n := binary.BigEndian.Uint32(raw.B)
	last := raw.B[4] == 1
	body := raw.B[chunkHeaderSize:]
	if int(n) <= len(body) {
		body = body[:n]
	}
	if c.partial == nil {
		// Size for the pipeline's common packet (a 4 KB SDU plus
		// header) rather than one chunk: sizing by len(body) would pick
		// the smallest tier and force every multi-chunk packet to
		// regrow off-pool.
		c.partial = buf.GetCap(buf.DefaultSDUStage)
	}
	c.partial.B = append(c.partial.B, body...)
	if !last {
		return false, nil, nil
	}
	msg := c.partial
	c.partial = nil
	return true, msg, nil
}

// Close closes the inner connection. A partially reassembled packet is
// left to the garbage collector rather than released here: the receive
// loop may still be touching it, and an unreleased buffer is merely a
// pool miss, never a leak.
func (c *chunkedConn) Close() error { return c.inner.Close() }

func (c *chunkedConn) MaxPacket() int { return 0 }

func (c *chunkedConn) Kind() Kind { return c.inner.Kind() }
