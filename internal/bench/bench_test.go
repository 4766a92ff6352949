package bench

import (
	"strings"
	"testing"
)

func TestTableIContainsAllNodeTypes(t *testing.T) {
	out := TableI()
	for _, want := range []string{
		"Tegner-K420", "Tegner-K80", "Kebnekaise-K80", "Kebnekaise-V100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
	// The paper's process counts.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title + header + 4 rows
		t.Fatalf("Table I has %d lines", len(lines))
	}
}

func TestFig7Output(t *testing.T) {
	out, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"grpc", "mpi", "rdma", "Tegner GPU", "Tegner CPU", "Kebnekaise GPU", "128MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 7 missing %q", want)
		}
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 11 { // title+header+9 rows
		t.Fatalf("Fig. 7 row count wrong:\n%s", out)
	}
}

func TestFig8Output(t *testing.T) {
	out, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Tegner K420", "Tegner K80", "Kebnekaise K80", "2+16", "65k"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 8 missing %q", want)
		}
	}
	// Tegner rows must not have 16-GPU entries (dash).
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Tegner") && !strings.HasSuffix(strings.TrimRight(line, " "), "-") {
			t.Errorf("Tegner row should end with '-' (no 16-GPU point): %q", line)
		}
	}
}

func TestFig9Output(t *testing.T) {
	out := Fig9()
	for _, want := range []string{"island 0", "island 1", "InfiniBand"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 9 missing %q", want)
		}
	}
}

func TestFig10OutputHasOOMGaps(t *testing.T) {
	out, err := Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "OOM") {
		t.Fatalf("Fig. 10 should mark the 65k memory gaps:\n%s", out)
	}
	for _, want := range []string{"Tegner K80", "Kebnekaise V100", "16k", "32k", "65k"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 10 missing %q", want)
		}
	}
}

func TestFig11Output(t *testing.T) {
	out, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Tegner K420", "Tegner K80", "2^29", "2^31", "1+8"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 11 missing %q", want)
		}
	}
}

func TestFiguresStitchEverything(t *testing.T) {
	out, err := Run([]string{"figures"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table I", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11"} {
		if !strings.Contains(out, want) {
			t.Errorf("figures output missing %q", want)
		}
	}
	if all, err := Run([]string{"all"}); err != nil || all != out {
		t.Errorf("-exp all is not -exp figures (err %v)", err)
	}
}
