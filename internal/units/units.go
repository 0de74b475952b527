// Package units defines the time and failure-rate conventions shared by
// every estimator in this repository.
//
// Continuous time is measured in seconds as float64. The paper (Table 1)
// models a 2.0 GHz processor, so one cycle is 0.5 ns; long-horizon
// workloads (the day and week schedules of Section 4.2) are expressed
// directly in seconds and never enumerate cycles.
//
// Raw soft-error rates follow the paper's conventions: the baseline
// per-bit rate is 1e-8 errors/year (0.001 FIT), and a component's raw
// rate is the product N x S x baseline where N is the number of elements
// (bits) and S the environment scaling factor (Table 2).
package units

// Time conversion constants.
const (
	// CyclesPerSecond is the clock rate of the base processor (Table 1).
	CyclesPerSecond = 2.0e9

	// SecondsPerCycle is the duration of one processor cycle.
	SecondsPerCycle = 1.0 / CyclesPerSecond

	// SecondsPerHour, SecondsPerDay, SecondsPerWeek and SecondsPerYear
	// convert the paper's workload horizons into model time. A year is
	// 365 days, matching the errors/year convention used for raw rates.
	SecondsPerHour = 3600.0
	SecondsPerDay  = 24 * SecondsPerHour
	SecondsPerWeek = 7 * SecondsPerDay
	SecondsPerYear = 365 * SecondsPerDay
)

// Failure-rate constants.
const (
	// HoursPerBillion is the observation window defining the FIT unit:
	// failures in time = failures per 1e9 device-hours.
	HoursPerBillion = 1.0e9

	// BaselinePerBitPerYear is the terrestrial raw soft error rate for
	// one bit of on-chip storage under current technology: 1e-8
	// errors/year = 0.001 FIT (Sections 3.1.2 and 4.2).
	BaselinePerBitPerYear = 1.0e-8
)

// PerYearToPerSecond converts a rate in errors/year to errors/second.
func PerYearToPerSecond(perYear float64) float64 { return perYear / SecondsPerYear }

// PerSecondToPerYear converts a rate in errors/second to errors/year.
func PerSecondToPerYear(perSecond float64) float64 { return perSecond * SecondsPerYear }

// PerYearToFIT converts errors/year to a FIT rate.
func PerYearToFIT(perYear float64) float64 {
	return perYear * HoursPerBillion / (SecondsPerYear / SecondsPerHour)
}

// ComponentRatePerYear returns the raw error rate, in errors/year, of a
// component with n elements under environment scaling factor s, using the
// paper's baseline per-bit rate (Table 2: rate = N x S x baseline).
func ComponentRatePerYear(n, s float64) float64 {
	return n * s * BaselinePerBitPerYear
}

// ComponentRatePerSecond is ComponentRatePerYear converted to errors/second.
func ComponentRatePerSecond(n, s float64) float64 {
	return PerYearToPerSecond(ComponentRatePerYear(n, s))
}
