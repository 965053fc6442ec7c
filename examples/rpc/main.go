// RPC example: a small key-value store served over NCS.
//
// A server system registers Get/Put/Delete handlers on an RPC server
// and accepts connections; several client systems then hammer it with
// concurrent calls through RPC clients that multiplex every in-flight
// call over one connection each. The last section shows deadline
// handling: a call into a deliberately slow method expires client-side
// and the server skips the stale work.
//
// Requests and responses are framed with ncs.Packer/Unpacker — the
// same external data representation NCS itself frames RPC headers
// with, so the service works unchanged across heterogeneous hosts.
//
// Run with: go run ./examples/rpc
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"ncs"
)

// store is the service state: one mutex-guarded map shared by every
// handler invocation (handlers run concurrently on the server's worker
// pool).
type store struct {
	mu sync.Mutex
	m  map[string][]byte
}

var errNotFound = errors.New("key not found")

func (s *store) get(_ context.Context, req []byte) ([]byte, error) {
	u := ncs.NewUnpacker(req)
	key := u.String()
	if err := u.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	val, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", errNotFound, key)
	}
	return val, nil
}

func (s *store) put(_ context.Context, req []byte) ([]byte, error) {
	u := ncs.NewUnpacker(req)
	key := u.String()
	// req is lent to the handler: the server releases it once the reply is
	// sent, so what the store keeps must be a copy — Unpacker.Bytes makes
	// one. Reading req, or returning it as the reply, needs none.
	val := u.Bytes()
	if err := u.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.m[key] = val
	s.mu.Unlock()
	return nil, nil
}

func (s *store) delete(_ context.Context, req []byte) ([]byte, error) {
	u := ncs.NewUnpacker(req)
	key := u.String()
	if err := u.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
	return nil, nil
}

// putReq frames a Put request: string key, opaque value.
func putReq(key string, val []byte) []byte {
	return ncs.NewPacker().String(key).Bytes(val).Message()
}

// keyReq frames a Get/Delete request: just the string key.
func keyReq(key string) []byte {
	return ncs.NewPacker().String(key).Message()
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	nw := ncs.NewNetwork()
	defer nw.Close()

	server, err := nw.NewSystem("kv-server")
	if err != nil {
		return err
	}

	// The service: three named methods over one shared store, dispatched
	// on a 4-worker pool. "slow" exists to demonstrate deadlines.
	kv := &store{m: make(map[string][]byte)}
	srv := ncs.NewServer(ncs.RPCServerOptions{Workers: 4})
	srv.Handle("kv.Get", kv.get)
	srv.Handle("kv.Put", kv.put)
	srv.Handle("kv.Delete", kv.delete)
	srv.Handle("slow", func(ctx context.Context, req []byte) ([]byte, error) {
		select {
		case <-time.After(time.Second):
			return req, nil
		case <-ctx.Done(): // the caller's propagated deadline
			return nil, ctx.Err()
		}
	})
	defer srv.Shutdown()

	// Accept loop: every client connection is handed to the same server,
	// which demultiplexes all of them onto its worker pool.
	go func() {
		for {
			conn, err := server.Accept()
			if err != nil {
				return
			}
			srv.ServeConn(conn)
		}
	}()

	// Three client systems, each with its own connection and RPC client,
	// each running several concurrent goroutines.
	const clients, goroutines, keysEach = 3, 4, 5
	var wg sync.WaitGroup
	errCh := make(chan error, clients*goroutines)
	for ci := 0; ci < clients; ci++ {
		sys, err := nw.NewSystem(fmt.Sprintf("kv-client-%d", ci))
		if err != nil {
			return err
		}
		conn, err := sys.Connect("kv-server", ncs.Options{Interface: ncs.SCI})
		if err != nil {
			return err
		}
		cli := ncs.NewClient(conn)
		defer cli.Close()

		for gi := 0; gi < goroutines; gi++ {
			wg.Add(1)
			go func(ci, gi int) {
				defer wg.Done()
				ctx := context.Background()
				for k := 0; k < keysEach; k++ {
					key := fmt.Sprintf("client%d/g%d/key%d", ci, gi, k)
					val := []byte(fmt.Sprintf("value-%d-%d-%d", ci, gi, k))
					if _, err := cli.Call(ctx, "kv.Put", putReq(key, val)); err != nil {
						errCh <- fmt.Errorf("put %s: %w", key, err)
						return
					}
					got, err := cli.Call(ctx, "kv.Get", keyReq(key))
					if err != nil {
						errCh <- fmt.Errorf("get %s: %w", key, err)
						return
					}
					if string(got) != string(val) {
						errCh <- fmt.Errorf("get %s: got %q want %q", key, got, val)
						return
					}
				}
			}(ci, gi)
		}
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return err
	}
	total := clients * goroutines * keysEach
	fmt.Printf("stored and read back %d keys from %d clients x %d goroutines\n",
		total, clients, goroutines)

	// Application errors propagate with the failing method attached.
	probe, err := nw.NewSystem("kv-probe")
	if err != nil {
		return err
	}
	conn, err := probe.Connect("kv-server", ncs.Options{Interface: ncs.HPI})
	if err != nil {
		return err
	}
	cli := ncs.NewClient(conn)
	defer cli.Close()

	if _, err := cli.Call(context.Background(), "kv.Delete", keyReq("client0/g0/key0")); err != nil {
		return err
	}
	_, err = cli.Call(context.Background(), "kv.Get", keyReq("client0/g0/key0"))
	var se *ncs.RPCServerError
	if !errors.As(err, &se) {
		return fmt.Errorf("expected a server error after delete, got %v", err)
	}
	fmt.Printf("deleted key now fails with: %v\n", err)

	// Deadline handling: the slow method takes 1s, the caller gives it
	// 50ms. The call fails fast and the budget travels in the header, so
	// the server abandons the work too.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cli.Call(ctx, "slow", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("expected DeadlineExceeded from slow call, got %v", err)
	}
	fmt.Printf("slow call expired after %v: %v\n", time.Since(start).Round(time.Millisecond), err)
	return nil
}
