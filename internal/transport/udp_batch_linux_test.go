//go:build linux && (amd64 || arm64)

package transport

import (
	"testing"

	"ncs/internal/buf"
)

// sendSyscalls pushes 1024 4KB datagrams through SendBatch, 16 at a
// time, over a loopback pair whose endpoints coalesce up to batch
// datagrams per sendmmsg, and returns how many send syscalls that cost
// (the transport.udp.send_syscalls_total delta).
func sendSyscalls(t *testing.T, batch int) int64 {
	t.Helper()
	a, b, err := UDPPair(&UDPLink{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			rb, err := b.RecvBuf()
			if err != nil {
				return
			}
			rb.Release()
		}
	}()
	defer func() { b.Close(); <-drained }()

	before := mUDPSendSyscalls.Value()
	group := make([]*buf.Buffer, 16)
	for sent := 0; sent < 1024; sent += len(group) {
		for i := range group {
			group[i] = buf.GetCap(4096)
			group[i].B = group[i].B[:4096]
		}
		if err := a.SendBatch(group); err != nil {
			t.Fatal(err)
		}
	}
	return mUDPSendSyscalls.Value() - before
}

// TestUDPBatchingCutsSendSyscalls is the real-wire transport's claim as
// a count: the same 1024 datagrams cost at least 2x fewer kernel
// crossings through sendmmsg than one syscall per datagram.
func TestUDPBatchingCutsSendSyscalls(t *testing.T) {
	batched, single := sendSyscalls(t, 16), sendSyscalls(t, 1)
	t.Logf("send syscalls for 1024 datagrams: Batch 16 = %d, Batch 1 = %d", batched, single)
	if single < 1024 {
		t.Fatalf("Batch 1 sent 1024 datagrams in %d syscalls: the counter missed some", single)
	}
	if batched*2 > single {
		t.Fatalf("Batch 16 cost %d send syscalls, Batch 1 cost %d: want at least 2x fewer", batched, single)
	}
}
