package workload

import (
	"fmt"
	"sort"
)

// The profile parameters below are calibrated qualitatively against
// published SPEC CPU2000 characterizations: mcf and art are memory-bound
// with large, poorly-localized footprints; crafty, vortex, and gcc are
// control-heavy; swim, mgrid, applu, and lucas stream over large arrays;
// sixtrack and fma3d are dense floating-point compute; gzip and bzip2
// are compression kernels with tight integer loops. The absolute
// parameters matter only through the utilization statistics of the
// resulting masking traces.

const (
	kb = 1024
	mb = 1024 * 1024
)

func specIntProfiles() []Profile {
	return []Profile{
		{
			Name: "gzip", Suite: SuiteInt,
			Mix:  Mix{IntALU: 0.48, IntMul: 0.02, Load: 0.22, Store: 0.10, Branch: 0.18},
			DepP: 0.45, RandomBranchFrac: 0.12, TakenBias: 0.92,
			DataFootprint: 2 * mb, StrideFrac: 0.75, CodeFootprint: 16 * kb,
		},
		{
			Name: "vpr", Suite: SuiteInt,
			Mix:  Mix{IntALU: 0.42, IntMul: 0.03, IntDiv: 0.005, FPOp: 0.05, Load: 0.26, Store: 0.08, Branch: 0.155},
			DepP: 0.5, RandomBranchFrac: 0.2, TakenBias: 0.9,
			DataFootprint: 8 * mb, StrideFrac: 0.45, CodeFootprint: 24 * kb,
		},
		{
			Name: "gcc", Suite: SuiteInt,
			Mix:  Mix{IntALU: 0.40, IntMul: 0.01, Load: 0.26, Store: 0.12, Branch: 0.21},
			DepP: 0.55, RandomBranchFrac: 0.2, TakenBias: 0.9,
			DataFootprint: 16 * mb, StrideFrac: 0.4, CodeFootprint: 96 * kb,
		},
		{
			Name: "mcf", Suite: SuiteInt,
			Mix:  Mix{IntALU: 0.33, IntMul: 0.01, Load: 0.35, Store: 0.09, Branch: 0.22},
			DepP: 0.6, RandomBranchFrac: 0.25, TakenBias: 0.88,
			DataFootprint: 96 * mb, StrideFrac: 0.1, CodeFootprint: 8 * kb,
		},
		{
			Name: "crafty", Suite: SuiteInt,
			Mix:  Mix{IntALU: 0.46, IntMul: 0.02, IntDiv: 0.002, Load: 0.27, Store: 0.07, Branch: 0.178},
			DepP: 0.4, RandomBranchFrac: 0.15, TakenBias: 0.91,
			DataFootprint: 4 * mb, StrideFrac: 0.35, CodeFootprint: 48 * kb,
		},
		{
			Name: "parser", Suite: SuiteInt,
			Mix:  Mix{IntALU: 0.41, IntMul: 0.01, Load: 0.27, Store: 0.10, Branch: 0.21},
			DepP: 0.55, RandomBranchFrac: 0.18, TakenBias: 0.9,
			DataFootprint: 24 * mb, StrideFrac: 0.3, CodeFootprint: 32 * kb,
		},
		{
			Name: "gap", Suite: SuiteInt,
			Mix:  Mix{IntALU: 0.45, IntMul: 0.04, IntDiv: 0.004, Load: 0.24, Store: 0.09, Branch: 0.176},
			DepP: 0.45, RandomBranchFrac: 0.12, TakenBias: 0.92,
			DataFootprint: 32 * mb, StrideFrac: 0.5, CodeFootprint: 32 * kb,
		},
		{
			Name: "vortex", Suite: SuiteInt,
			Mix:  Mix{IntALU: 0.40, IntMul: 0.01, Load: 0.28, Store: 0.13, Branch: 0.18},
			DepP: 0.5, RandomBranchFrac: 0.1, TakenBias: 0.94,
			DataFootprint: 48 * mb, StrideFrac: 0.45, CodeFootprint: 80 * kb,
		},
		{
			Name: "bzip2", Suite: SuiteInt,
			Mix:  Mix{IntALU: 0.50, IntMul: 0.02, Load: 0.23, Store: 0.09, Branch: 0.16},
			DepP: 0.42, RandomBranchFrac: 0.15, TakenBias: 0.92,
			DataFootprint: 64 * mb, StrideFrac: 0.65, CodeFootprint: 16 * kb,
		},
	}
}

func specFPProfiles() []Profile {
	return []Profile{
		{
			Name: "wupwise", Suite: SuiteFP,
			Mix:  Mix{IntALU: 0.18, FPOp: 0.40, FPDiv: 0.005, Load: 0.26, Store: 0.10, Branch: 0.055},
			DepP: 0.35, RandomBranchFrac: 0.05, TakenBias: 0.95,
			DataFootprint: 64 * mb, StrideFrac: 0.8, CodeFootprint: 16 * kb,
		},
		{
			Name: "swim", Suite: SuiteFP,
			Mix:  Mix{IntALU: 0.14, FPOp: 0.42, Load: 0.29, Store: 0.12, Branch: 0.03},
			DepP: 0.3, RandomBranchFrac: 0.02, TakenBias: 0.97,
			DataFootprint: 96 * mb, StrideFrac: 0.95, CodeFootprint: 8 * kb,
		},
		{
			Name: "mgrid", Suite: SuiteFP,
			Mix:  Mix{IntALU: 0.16, FPOp: 0.46, Load: 0.28, Store: 0.07, Branch: 0.03},
			DepP: 0.32, RandomBranchFrac: 0.02, TakenBias: 0.97,
			DataFootprint: 56 * mb, StrideFrac: 0.9, CodeFootprint: 12 * kb,
		},
		{
			Name: "applu", Suite: SuiteFP,
			Mix:  Mix{IntALU: 0.15, FPOp: 0.44, FPDiv: 0.01, Load: 0.28, Store: 0.09, Branch: 0.03},
			DepP: 0.35, RandomBranchFrac: 0.03, TakenBias: 0.96,
			DataFootprint: 80 * mb, StrideFrac: 0.85, CodeFootprint: 24 * kb,
		},
		{
			Name: "mesa", Suite: SuiteFP,
			Mix:  Mix{IntALU: 0.28, FPOp: 0.30, FPDiv: 0.008, Load: 0.24, Store: 0.10, Branch: 0.072},
			DepP: 0.42, RandomBranchFrac: 0.1, TakenBias: 0.92,
			DataFootprint: 16 * mb, StrideFrac: 0.6, CodeFootprint: 64 * kb,
		},
		{
			Name: "art", Suite: SuiteFP,
			Mix:  Mix{IntALU: 0.20, FPOp: 0.33, Load: 0.34, Store: 0.07, Branch: 0.06},
			DepP: 0.4, RandomBranchFrac: 0.08, TakenBias: 0.94,
			DataFootprint: 4 * mb, StrideFrac: 0.3, CodeFootprint: 8 * kb,
		},
		{
			Name: "equake", Suite: SuiteFP,
			Mix:  Mix{IntALU: 0.22, FPOp: 0.34, FPDiv: 0.006, Load: 0.30, Store: 0.08, Branch: 0.054},
			DepP: 0.45, RandomBranchFrac: 0.06, TakenBias: 0.94,
			DataFootprint: 40 * mb, StrideFrac: 0.5, CodeFootprint: 16 * kb,
		},
		{
			Name: "facerec", Suite: SuiteFP,
			Mix:  Mix{IntALU: 0.19, FPOp: 0.38, Load: 0.28, Store: 0.09, Branch: 0.06},
			DepP: 0.38, RandomBranchFrac: 0.07, TakenBias: 0.94,
			DataFootprint: 24 * mb, StrideFrac: 0.7, CodeFootprint: 24 * kb,
		},
		{
			Name: "ammp", Suite: SuiteFP,
			Mix:  Mix{IntALU: 0.21, FPOp: 0.36, FPDiv: 0.012, Load: 0.29, Store: 0.08, Branch: 0.048},
			DepP: 0.48, RandomBranchFrac: 0.08, TakenBias: 0.93,
			DataFootprint: 32 * mb, StrideFrac: 0.35, CodeFootprint: 24 * kb,
		},
		{
			Name: "lucas", Suite: SuiteFP,
			Mix:  Mix{IntALU: 0.15, FPOp: 0.45, Load: 0.27, Store: 0.10, Branch: 0.03},
			DepP: 0.3, RandomBranchFrac: 0.02, TakenBias: 0.97,
			DataFootprint: 96 * mb, StrideFrac: 0.9, CodeFootprint: 16 * kb,
		},
		{
			Name: "fma3d", Suite: SuiteFP,
			Mix:  Mix{IntALU: 0.20, FPOp: 0.40, FPDiv: 0.008, Load: 0.26, Store: 0.10, Branch: 0.032},
			DepP: 0.36, RandomBranchFrac: 0.05, TakenBias: 0.95,
			DataFootprint: 64 * mb, StrideFrac: 0.65, CodeFootprint: 96 * kb,
		},
		{
			Name: "sixtrack", Suite: SuiteFP,
			Mix:  Mix{IntALU: 0.17, FPOp: 0.50, FPDiv: 0.01, Load: 0.22, Store: 0.06, Branch: 0.04},
			DepP: 0.33, RandomBranchFrac: 0.03, TakenBias: 0.96,
			DataFootprint: 8 * mb, StrideFrac: 0.8, CodeFootprint: 48 * kb,
		},
	}
}

// All returns every benchmark profile, integer suite first.
func All() []Profile {
	return append(specIntProfiles(), specFPProfiles()...)
}

// Names returns the benchmark names in suite order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, p := range all {
		names[i] = p.Name
	}
	return names
}

// ByName returns the profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	known := Names()
	sort.Strings(known)
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q (known: %v)", name, known)
}
