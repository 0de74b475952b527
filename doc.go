// Package soferr is an architecture-level soft-error reliability
// toolkit: a Go reproduction of "Architecture-Level Soft Error
// Analysis: Examining the Limits of Common Assumptions" (Li, Adve,
// Bose, Rivers — DSN 2007).
//
// # What it does
//
// Radiation-induced soft errors are transient bit flips. Architectural
// masking means most raw errors do not affect program outcome, and the
// industry-standard way to account for it is the AVF+SOFR method:
// derate each component's raw error rate by its architecture
// vulnerability factor (AVF), sum the derated failure rates (SOFR), and
// invert to get the system MTTF. Both steps assume things about the
// masked failure process — uniform vulnerability and exponential times
// to failure — that architectural masking can violate.
//
// This package provides every tool needed to quantify when that
// matters:
//
//   - Masking traces (Trace): periodic descriptions of when a raw error
//     in a component would be masked, built from schedules, bit vectors,
//     or the bundled cycle-level processor simulator. Every estimator
//     reads a trace through its cumulative exposure, which each trace
//     tabulates, evaluates and inverts.
//   - A compiled System (NewSystem): validate components once,
//     precompute what every estimator shares, then query MTTF by method
//     (AVFSOFR, MonteCarlo, SoftArch), compare methods on identical
//     state (Compare), and ask distribution-level questions the flat
//     API cannot express (Reliability, FailureQuantile). Monte-Carlo
//     queries run one of two engines (WithEngine): Fused, the default,
//     samples the whole system from one merged cumulative-hazard table
//     in O(log S) per trial regardless of the component count, and
//     Exact integrates that same table in closed form (zero trials,
//     zero stderr; ErrExactUnavailable where no tabulation exists).
//     Fused queries can target a precision instead of a trial count
//     (WithTargetRelStdErr): trials run in deterministic doubling
//     rounds until the relative standard error meets the target. Such
//     adaptive queries draw from a scrambled Sobol sequence by default
//     wherever every draw of a trial has a Sobol dimension:
//     quasi-Monte-Carlo reaches a 1% precision target in a quarter of
//     the PCG trial count, with the standard error estimated from 256
//     independently scrambled replicates. Fixed-trial queries run PCG,
//     and WithSampler names either sampler outright. Every estimate
//     records the sampler that ran (Estimate.Sampler).
//   - A design-space sweep engine (Sweep, SweepCells, SweepCellsAll): a
//     Grid of named axes — workloads/traces, raw rates, component
//     counts, estimator methods — evaluated concurrently with one
//     compiled System per unique configuration and deterministic
//     per-cell seeds, so full-grid results are bit-identical for any
//     worker count. The paper's Section 5 tables run on this engine.
//   - A declarative system description (Spec): components as named
//     trace constructors plus rates and counts, JSON-serializable, with
//     validation, a stable content hash (equal Specs hash equal), and
//     Compile to a *System — the wire format of the `soferr serve` HTTP
//     query service, whose compiled-System LRU is keyed by that hash. A
//     Compiler shares benchmark simulations across many Specs, and the
//     paper's Section 5 tables build their traces through one too.
//   - The flat convenience functions for one-shot use: the AVF step
//     (AVF, AVFMTTF), the SOFR step (SOFRMTTF), the first-principles
//     Monte-Carlo estimator (MonteCarloMTTF), and the SoftArch-style
//     exact survival model (SoftArchMTTF). These are thin wrappers over
//     a single-use System and agree with it bit-for-bit.
//   - Closed-form analytics for the paper's counter-example workloads
//     (BusyIdleMTTF and friends).
//   - A trace-driven out-of-order POWER4-like timing simulator and 21
//     SPEC CPU2000-like synthetic workloads (SimulateBenchmark) that
//     generate realistic masking traces.
//
// # Quick start
//
// Build a System once, then query it as often as you like — every
// query after the first is answered from precompiled state:
//
//	tr, _ := soferr.BusyIdleTrace(24*time.Hour.Seconds(), 12*time.Hour.Seconds())
//	sys, _ := soferr.NewSystem([]soferr.Component{{
//		Name: "cache", RatePerYear: 10, Trace: tr,
//	}})
//	ctx := context.Background()
//	ests, _ := sys.Compare(ctx, soferr.AVFSOFR, soferr.MonteCarlo, soferr.SoftArch)
//	for _, e := range ests {
//		fmt.Printf("%-10v MTTF %.0fs (FIT %.1f)\n", e.Method, e.MTTF, e.FIT)
//	}
//	surviveYear, _ := sys.Reliability(ctx, 365*86400)
//	p01, _ := sys.FailureQuantile(ctx, 0.01)
//	fmt.Printf("P(survive 1yr) = %.4f; 1%% of fleets fail by %.0fs\n", surviveYear, p01)
//
// A Monte-Carlo query's settings are one Query (engine, sampler,
// trials, seed, precision target, workers), passed whole with WithQuery
// or field by field with WithTrials, WithSeed, WithEngine, WithSampler,
// WithTargetRelStdErr and WithWorkers; WithTimeLimit bounds the wall
// time. Queries honor context cancellation mid-run. Seeded runs are
// deterministic, so queries whose settings normalize equal are served
// from one transparent memo entry. The same Query is the body of the
// query server's requests and the target of the CLI's query flags.
//
// To evaluate a whole design space rather than one system, sweep a
// grid — every cell's methods run against one shared compiled System,
// and cells with equal (trace, rate x count) products share compilation:
//
//	results, _ := soferr.Sweep(ctx, soferr.Grid{
//		Sources:      sources,              // workloads ([]TraceSource)
//		RatesPerYear: []float64{10, 1e4},   // raw-rate axis
//		Counts:       []int{1, 8, 5000},    // cluster-size axis
//		Seed:         1,                    // per-cell streams derive from this
//	})
//
// The same engine backs the `soferr sweep` CLI subcommand and the
// paper's Section 5 experiment tables (`soferr run fig5 ...`), and the
// whole query surface is servable over HTTP (`soferr serve`): clients
// POST a Spec and estimate options, and equal Specs share one compiled
// System server-side. The serving tier is chaos-hardened — panics in
// estimation code are contained to typed errors on the one request
// that hit them, overload 503s carry Retry-After, readiness
// (/readyz) flips before shutdown drains, and /v1/sweep pages and
// streams with a resumable cursor whose every window is bit-identical
// to the single-shot sweep. The client subpackage
// (github.com/soferr/soferr/client) wraps it all with retry, backoff,
// automatic grid splitting, and stream resume; `soferr sweep -server`
// drives a remote sweep through it. See README.md, "Serving", and
// DESIGN.md, "Failure model".
//
// See README.md for an overview, examples/ for runnable programs, and
// DESIGN.md / EXPERIMENTS.md for the mapping from the paper's tables
// and figures to this code.
//
//soferr:deterministic
package soferr
