package workload

import (
	"math"
	"testing"

	"github.com/soferr/soferr/internal/isa"
	"github.com/soferr/soferr/internal/trace"
	"github.com/soferr/soferr/internal/units"
)

func TestProfilesComplete(t *testing.T) {
	// Section 4.1 uses 9 integer and 12 floating-point benchmarks.
	if got := len(specIntProfiles()); got != 9 {
		t.Errorf("integer profile count = %d, want 9 (Section 4.1)", got)
	}
	if got := len(specFPProfiles()); got != 12 {
		t.Errorf("floating-point profile count = %d, want 12 (Section 4.1)", got)
	}
	if got := len(All()); got != 21 {
		t.Errorf("All count = %d, want 21", got)
	}
	seen := make(map[string]bool)
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate profile %s", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mcf" || p.Suite != SuiteInt {
		t.Errorf("ByName(mcf) = %+v", p)
	}
	if _, err := ByName("nosuchbench"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, err := ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Generate(5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Generate(5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs across identical generations", i)
		}
	}
	c, err := p.Generate(5000, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateValidInstructions(t *testing.T) {
	for _, p := range All() {
		prog, err := p.Generate(2000, 7)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(prog) != 2000 {
			t.Fatalf("%s: got %d instructions", p.Name, len(prog))
		}
		for i := range prog {
			if err := prog[i].Validate(); err != nil {
				t.Fatalf("%s instruction %d: %v", p.Name, i, err)
			}
		}
	}
}

func TestGenerateMixMatchesProfile(t *testing.T) {
	p, err := ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	prog, err := p.Generate(n, 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[isa.Class]int)
	for i := range prog {
		counts[prog[i].Class]++
	}
	total := p.Mix.total()
	check := func(class isa.Class, want float64) {
		got := float64(counts[class]) / n
		want /= total
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%v fraction = %v, want ~%v", class, got, want)
		}
	}
	check(isa.FPOp, p.Mix.FPOp)
	check(isa.Load, p.Mix.Load)
	check(isa.Store, p.Mix.Store)
	check(isa.Branch, p.Mix.Branch)
	check(isa.IntALU, p.Mix.IntALU)
}

func TestGeneratePCsLoopOverCode(t *testing.T) {
	p, err := ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Generate(30000, 3)
	if err != nil {
		t.Fatal(err)
	}
	maxPC := uint64(0)
	for i := range prog {
		if prog[i].PC > maxPC {
			maxPC = prog[i].PC
		}
	}
	if maxPC >= p.CodeFootprint {
		t.Errorf("PC %d outside code footprint %d", maxPC, p.CodeFootprint)
	}
	// The trace is longer than the code, so PCs must repeat.
	if prog[0].PC != prog[int(p.CodeFootprint/4)].PC {
		t.Error("PCs do not loop over the code footprint")
	}
}

func TestGenerateAddressesWithinFootprint(t *testing.T) {
	p, err := ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Generate(50000, 5)
	if err != nil {
		t.Fatal(err)
	}
	const dataBase = uint64(0x1000_0000)
	for i := range prog {
		if !prog[i].Class.IsMem() {
			continue
		}
		if prog[i].Addr < dataBase || prog[i].Addr >= dataBase+p.DataFootprint {
			t.Fatalf("address %#x outside footprint", prog[i].Addr)
		}
		if prog[i].Addr%8 != 0 {
			t.Fatalf("unaligned address %#x", prog[i].Addr)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	p, err := ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Generate(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	bad := p
	bad.DepP = 0
	if _, err := bad.Generate(10, 1); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestDaySchedule(t *testing.T) {
	d, err := Day()
	if err != nil {
		t.Fatal(err)
	}
	if d.Period() != units.SecondsPerDay {
		t.Errorf("period = %v, want one day", d.Period())
	}
	if math.Abs(d.AVF()-0.5) > 1e-12 {
		t.Errorf("AVF = %v, want 0.5 (busy half the day)", d.AVF())
	}
	if d.VulnAt(1000) != 1 {
		t.Error("daytime should be vulnerable")
	}
	if d.VulnAt(units.SecondsPerDay-1000) != 0 {
		t.Error("night should be masked")
	}
}

func TestWeekSchedule(t *testing.T) {
	w, err := Week()
	if err != nil {
		t.Fatal(err)
	}
	if w.Period() != units.SecondsPerWeek {
		t.Errorf("period = %v, want one week", w.Period())
	}
	want := 5.0 / 7.0
	if math.Abs(w.AVF()-want) > 1e-12 {
		t.Errorf("AVF = %v, want 5/7", w.AVF())
	}
}

func TestCombinedSchedule(t *testing.T) {
	a, err := trace.BusyIdle(1e-3, 0.8e-3) // busy benchmark
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.BusyIdle(1e-3, 0.2e-3) // idle benchmark
	if err != nil {
		t.Fatal(err)
	}
	c, err := Combined(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Period()-units.SecondsPerDay) > 1.0 {
		t.Errorf("period = %v, want ~1 day", c.Period())
	}
	wantAVF := (0.8 + 0.2) / 2
	if math.Abs(c.AVF()-wantAVF) > 1e-9 {
		t.Errorf("AVF = %v, want %v", c.AVF(), wantAVF)
	}
	// First half follows a, second half follows b.
	if got := c.VulnAt(0.85e-3); got != 0 {
		t.Errorf("first-half idle point = %v, want 0", got)
	}
	if got := c.VulnAt(units.SecondsPerDay/2 + 0.1e-3); got != 1 {
		t.Errorf("second-half busy point = %v, want 1", got)
	}
}

func TestCombinedValidation(t *testing.T) {
	if _, err := Combined(nil, nil); err == nil {
		t.Error("nil traces accepted")
	}
	long, err := trace.BusyIdle(units.SecondsPerDay, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Combined(long, long); err == nil {
		t.Error("over-long benchmark trace accepted")
	}
}

func TestSuiteString(t *testing.T) {
	if SuiteInt.String() != "int" || SuiteFP.String() != "fp" {
		t.Error("suite names wrong")
	}
	if Suite(9).String() == "" {
		t.Error("unknown suite should render")
	}
}
