// Package clustertest holds the checks the applications' tests share for
// their drivers over in-process clusters.
package clustertest

import (
	"runtime"
	"testing"
	"time"

	"tfhpc/internal/cluster"
)

// CheckNothingLeft fails t if what left anything behind: a task still
// published in this process (cluster.Published), or more than base
// goroutines still running after 5 s.
func CheckNothingLeft(t testing.TB, what string, base int) {
	t.Helper()
	if n := cluster.Published(); n != 0 {
		t.Fatalf("%s left tasks published under %d addresses", what, n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s left %d goroutines, %d before:\n%s",
				what, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
