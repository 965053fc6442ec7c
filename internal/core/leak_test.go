package core

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"ncs/internal/buf"
	"ncs/internal/flowctl"
)

// TestMain is the package's goleak-style audit: after every test has
// run (and closed its networks), the process must quiesce back to the
// pre-test goroutine count and to zero outstanding pooled buffers.
// Goroutine leaks are connection threads that survived Close; buffer
// leaks are retained receive references nothing will ever release
// (e.g. reassembly state of a session abandoned at teardown).
// idleGoroutines is the process's goroutine count before any test ran:
// what a test that counts goroutines exactly waits to get back to first.
var idleGoroutines int

func TestMain(m *testing.M) {
	idleGoroutines = runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := awaitQuiescence(idleGoroutines, 5*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// awaitQuiescence polls until the goroutine count returns to the
// baseline, no pooled buffers remain outstanding, and no flow-control
// timers are still armed, tolerating the short tail of exiting threads
// after the final Close. The timer check catches credit receivers whose
// refill retries outlive their connection: each would pin its receiver
// (and its connection) on the runtime timer heap.
func awaitQuiescence(baseline int, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		goroutines := runtime.NumGoroutine()
		bufs := buf.Outstanding()
		timers := flowctl.PendingTimers()
		if goroutines <= baseline && bufs == 0 && timers == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			stack := make([]byte, 1<<20)
			stack = stack[:runtime.Stack(stack, true)]
			return fmt.Errorf("leak audit: %d goroutines (baseline %d), %d pooled buffer refs outstanding, %d flowctl timers armed\n%s",
				goroutines, baseline, bufs, timers, stack)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
