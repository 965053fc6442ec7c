//go:build linux && (amd64 || arm64)

// Linux batch I/O for the UDP transport: sendmmsg(2)/recvmmsg(2)
// through the raw syscall layer, so a whole SendBatch (or a socket's
// backlog of arrivals) crosses the kernel boundary in one syscall.
// The stdlib syscall package carries the Msghdr/Iovec layouts and the
// syscall numbers for both 64-bit ports; golang.org/x/net would wrap
// the same calls, but the repo is dependency-free, so this speaks to
// the kernel directly. Sockets stay registered with the Go netpoller:
// each syscall runs inside a RawConn Read/Write callback with
// MSG_DONTWAIT, and EAGAIN parks the goroutine on the poller instead
// of spinning.
//
// Each outbound message is a two-element iovec — the 8-byte frame
// header in the outMsg itself, then the pooled payload — so headers
// are prepended without copying payload bytes. Inbound datagrams land
// directly in pooled slot buffers (one iovec each); kernel-reported
// MSG_TRUNC marks slot overflows per message.

package transport

import (
	"fmt"
	"net"
	"syscall"
	"unsafe"

	"ncs/internal/buf"
)

const batchSyscallsSupported = true

// mmsghdr mirrors struct mmsghdr for linux/{amd64,arm64}: a msghdr
// plus the per-message byte count, padded to 8-byte alignment.
type mmsghdr struct {
	Hdr syscall.Msghdr
	Len uint32
	_   [4]byte
}

// wireAddr is a pre-encoded raw sockaddr, built once per peer so the
// send path never re-marshals addresses.
type wireAddr struct {
	raw  syscall.RawSockaddrInet6 // large enough for v4 and v6
	size uint32
}

func encodeWireAddr(a *net.UDPAddr) (wireAddr, error) {
	var w wireAddr
	if ip4 := a.IP.To4(); ip4 != nil {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&w.raw))
		sa.Family = syscall.AF_INET
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(a.Port>>8), byte(a.Port)
		copy(sa.Addr[:], ip4)
		w.size = syscall.SizeofSockaddrInet4
		return w, nil
	}
	ip6 := a.IP.To16()
	if ip6 == nil {
		return w, fmt.Errorf("udp: unencodable address %v", a)
	}
	w.raw.Family = syscall.AF_INET6
	p := (*[2]byte)(unsafe.Pointer(&w.raw.Port))
	p[0], p[1] = byte(a.Port>>8), byte(a.Port)
	copy(w.raw.Addr[:], ip6)
	w.size = syscall.SizeofSockaddrInet6
	return w, nil
}

// parseRawSockaddr converts a kernel-filled sockaddr to an addrKey
// without allocating.
func parseRawSockaddr(sa *syscall.RawSockaddrInet6, size uint32) (addrKey, bool) {
	var k addrKey
	switch sa.Family {
	case syscall.AF_INET:
		if size < syscall.SizeofSockaddrInet4 {
			return k, false
		}
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		copy(k.ip[:4], sa4.Addr[:])
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		k.port = uint16(p[0])<<8 | uint16(p[1])
		k.v4 = true
		return k, true
	case syscall.AF_INET6:
		if size < syscall.SizeofSockaddrInet6 {
			return k, false
		}
		copy(k.ip[:], sa.Addr[:])
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		k.port = uint16(p[0])<<8 | uint16(p[1])
		return k, true
	}
	return k, false
}

// batchIO holds the per-socket syscall scratch. Send fields are
// guarded by the endpoint's sendMu; recv fields belong to the reader
// goroutine. Scratch arrays grow to the largest batch seen and are
// reused for every syscall after that.
//
// The callbacks handed to RawConn.Read/Write are built once, here, and
// trade their arguments and results through the fields beside them: a
// closure built per syscall captures its result variables, and the
// closure and every one of them then escape to the heap — four
// allocations per sendmmsg or recvmmsg.
type batchIO struct {
	rc        syscall.RawConn
	connected bool

	shdrs   []mmsghdr
	siov    [][2]syscall.Iovec
	sendOff int // in: first header of shdrs still to send
	sendN   uintptr
	sendErr syscall.Errno
	sendFn  func(fd uintptr) bool

	rhdrs   []mmsghdr
	riov    []syscall.Iovec
	rnames  []syscall.RawSockaddrInet6
	recvN   uintptr
	recvErr syscall.Errno
	recvFn  func(fd uintptr) bool
}

func newBatchIO(sock *net.UDPConn, connected bool) (*batchIO, error) {
	rc, err := sock.SyscallConn()
	if err != nil {
		return nil, err
	}
	io := &batchIO{rc: rc, connected: connected}
	io.sendFn = io.sendmmsg
	io.recvFn = io.recvmmsg
	return io, nil
}

// sendmmsg is the RawConn.Write callback: one non-blocking sendmmsg of
// shdrs[sendOff:]. Returning false parks the goroutine on the netpoller
// until the socket is writable.
func (io *batchIO) sendmmsg(fd uintptr) bool {
	io.sendN, _, io.sendErr = syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(&io.shdrs[io.sendOff])), uintptr(len(io.shdrs)-io.sendOff),
		syscall.MSG_DONTWAIT, 0, 0)
	if io.sendErr == syscall.EAGAIN {
		mUDPEagain.Inc()
		return false
	}
	return true
}

// recvmmsg is the RawConn.Read callback: one non-blocking recvmmsg into
// rhdrs.
func (io *batchIO) recvmmsg(fd uintptr) bool {
	io.recvN, _, io.recvErr = syscall.Syscall6(sysRECVMMSG, fd,
		uintptr(unsafe.Pointer(&io.rhdrs[0])), uintptr(len(io.rhdrs)),
		syscall.MSG_DONTWAIT, 0, 0)
	if io.recvErr == syscall.EAGAIN {
		mUDPEagain.Inc()
		return false
	}
	return true
}

// sendBatch transmits msgs in one sendmmsg (looping only on partial
// sends and EINTR). Caller holds sendMu and releases the payloads.
func (io *batchIO) sendBatch(msgs []outMsg) error {
	n := len(msgs)
	if n == 0 {
		return nil
	}
	if cap(io.shdrs) < n {
		io.shdrs = make([]mmsghdr, n)
		io.siov = make([][2]syscall.Iovec, n)
	}
	io.shdrs = io.shdrs[:n]
	io.siov = io.siov[:n]
	for i := range msgs {
		m := &msgs[i]
		iv := &io.siov[i]
		iv[0].Base = &m.hdr[0]
		iv[0].SetLen(udpHeaderSize)
		niov := 1
		if m.b != nil && len(m.b.B) > 0 {
			iv[1].Base = &m.b.B[0]
			iv[1].SetLen(len(m.b.B))
			niov = 2
		}
		h := &io.shdrs[i]
		*h = mmsghdr{}
		h.Hdr.Iov = &iv[0]
		h.Hdr.Iovlen = uint64(niov)
		if m.to != nil {
			h.Hdr.Name = (*byte)(unsafe.Pointer(&m.to.raw))
			h.Hdr.Namelen = m.to.size
		}
	}
	for io.sendOff = 0; io.sendOff < n; {
		werr := io.rc.Write(io.sendFn)
		mUDPSendSyscalls.Inc()
		if werr != nil {
			return werr
		}
		if io.sendErr != 0 {
			if io.sendErr == syscall.EINTR {
				continue
			}
			return io.sendErr
		}
		io.sendOff += int(io.sendN)
	}
	return nil
}

// recvBatch blocks (on the netpoller) for at least one datagram, then
// drains up to len(slots) in a single recvmmsg. Fills meta[i] for each
// of the returned count; the slot buffers keep their full length — the
// caller reslices by meta[i].n.
func (io *batchIO) recvBatch(slots []*buf.Buffer, meta []recvMeta) (int, error) {
	n := len(slots)
	if cap(io.rhdrs) < n {
		io.rhdrs = make([]mmsghdr, n)
		io.riov = make([]syscall.Iovec, n)
		io.rnames = make([]syscall.RawSockaddrInet6, n)
	}
	io.rhdrs = io.rhdrs[:n]
	io.riov = io.riov[:n]
	io.rnames = io.rnames[:n]
	for i := range slots {
		io.riov[i].Base = &slots[i].B[0]
		io.riov[i].SetLen(len(slots[i].B))
		h := &io.rhdrs[i]
		*h = mmsghdr{}
		h.Hdr.Iov = &io.riov[i]
		h.Hdr.Iovlen = 1
		if !io.connected {
			h.Hdr.Name = (*byte)(unsafe.Pointer(&io.rnames[i]))
			h.Hdr.Namelen = syscall.SizeofSockaddrInet6
		}
	}
	for {
		rerr := io.rc.Read(io.recvFn)
		mUDPRecvSyscalls.Inc()
		if rerr != nil {
			return 0, rerr
		}
		if io.recvErr == 0 {
			break
		}
		if io.recvErr != syscall.EINTR {
			return 0, io.recvErr
		}
	}
	got := int(io.recvN)
	for i := 0; i < got; i++ {
		h := &io.rhdrs[i]
		meta[i].n = int(h.Len)
		meta[i].trunc = h.Hdr.Flags&syscall.MSG_TRUNC != 0
		if !io.connected {
			meta[i].from, _ = parseRawSockaddr(&io.rnames[i], h.Hdr.Namelen)
		} else {
			meta[i].from = addrKey{}
		}
	}
	return got, nil
}
