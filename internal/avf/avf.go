// Package avf implements the AVF step of the AVF+SOFR methodology
// (Section 2.2, Mukherjee et al. [8]): a component's failure rate is its
// raw error rate derated by its architecture vulnerability factor, and
// its MTTF is the reciprocal:
//
//	MTTF_c = 1 / (lambda_c * AVF_c)     (Equation 1)
//
// The AVF itself is the fraction of time the component holds
// architecturally correct execution (ACE) state, which is exactly the
// time-average of the masking trace's instantaneous vulnerability.
package avf

import (
	"errors"
	"fmt"
	"math"

	"github.com/soferr/soferr/internal/trace"
)

// Sentinel errors of this package; callers branch with errors.Is.
var (
	errNilTrace = errors.New("avf: nil trace")
)

// MTTF returns the AVF-step MTTF estimate (Equation 1) in seconds for a
// component with the given raw error rate (errors/second) and AVF.
// It returns +Inf when the derated rate is zero.
func MTTF(rate, avf float64) (float64, error) {
	if rate < 0 || math.IsNaN(rate) {
		return 0, fmt.Errorf("avf: invalid rate %v", rate)
	}
	if avf < 0 || avf > 1 || math.IsNaN(avf) {
		return 0, fmt.Errorf("avf: AVF %v outside [0,1]", avf)
	}
	derated := rate * avf
	if derated == 0 {
		return math.Inf(1), nil
	}
	return 1 / derated, nil
}

// ComponentMTTF applies the AVF step to a component described by its raw
// rate and masking trace.
func ComponentMTTF(rate float64, tr trace.Trace) (float64, error) {
	if tr == nil {
		return 0, errNilTrace
	}
	return MTTF(rate, tr.AVF())
}
