package bench

import (
	"strings"
	"testing"
)

// An unknown name — a typo, or one of the host sweeps that moved to
// benchmark/ — is refused with the list of valid names.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, name := range []string{"fig99", "gemm", "serving"} {
		_, err := Run([]string{"table1", name})
		if err == nil {
			t.Fatalf("experiment %q accepted", name)
		}
		if want := strings.Join(ExperimentNames, "|"); !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %q does not list %q", name, err, want)
		}
	}
}
