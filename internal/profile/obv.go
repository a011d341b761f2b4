package profile

import (
	"fmt"
	"math"
	"regexp"
	"strings"
)

// Rule pairs a behavior with the regular expression that counts its
// occurrences in the profile log and the flag that must be on for the
// line to exist at all (§3.4: "we summarized the regular expression
// rules to capture the occurrences of each optimization behavior").
type Rule struct {
	Behavior Behavior
	Flag     Flag
	Pattern  string
	re       *regexp.Regexp
}

// Rules is the rule table, one per counted behavior, mirroring the
// paper's manual investigation of the 15 flags. The patterns are written
// against the exact line formats the simulated passes emit; e.g. the
// loop unroller prints "Unroll 8(16)" just like Listing 4's HotSpot code.
var Rules = buildRules()

func buildRules() []Rule {
	rs := []Rule{
		{Behavior: BInline, Flag: FlagPrintInlining, Pattern: `inline \(hot\)`},
		{Behavior: BInlineSync, Flag: FlagPrintInlining, Pattern: `monitors rewired`},
		{Behavior: BUnroll, Flag: FlagTraceLoopOpts, Pattern: `Unroll [0-9]+`},
		{Behavior: BPeel, Flag: FlagTraceLoopOpts, Pattern: `Peel `},
		{Behavior: BUnswitch, Flag: FlagTraceLoopOpts, Pattern: `Unswitch `},
		{Behavior: BPreMainPost, Flag: FlagTraceLoopOpts, Pattern: `PreMainPost `},
		{Behavior: BLockElim, Flag: FlagPrintEliminateLocks, Pattern: `\+\+\+\+ Eliminated: [0-9]+ Lock`},
		{Behavior: BNestedLockElim, Flag: FlagPrintEliminateLocks, Pattern: `Lock \(nested\)`},
		{Behavior: BLockCoarsen, Flag: FlagPrintLockCoarsening, Pattern: `Coarsened [0-9]+ locks`},
		{Behavior: BEscapeNone, Flag: FlagPrintEscapeAnalysis, Pattern: `is NoEscape`},
		{Behavior: BEscapeArg, Flag: FlagPrintEscapeAnalysis, Pattern: `is ArgEscape`},
		{Behavior: BScalarReplace, Flag: FlagPrintEliminateAllocations, Pattern: `Scalar replaced`},
		{Behavior: BAutoboxElim, Flag: FlagTraceAutoBoxElimination, Pattern: `Eliminated autobox`},
		{Behavior: BRedundantStore, Flag: FlagTraceRedundantStores, Pattern: `redundant store`},
		{Behavior: BAlgebraic, Flag: FlagTraceAlgebraicOpts, Pattern: `AlgebraicSimplify:`},
		{Behavior: BGVN, Flag: FlagPrintGVN, Pattern: `GVN hit:`},
		{Behavior: BDCE, Flag: FlagTraceDeadCode, Pattern: `DCE: removed`},
		{Behavior: BUncommonTrap, Flag: FlagTraceDeoptimization, Pattern: `Uncommon trap occurred`},
		{Behavior: BDeoptRecompile, Flag: FlagTraceDeoptimization, Pattern: `Deoptimization: recompile`},
	}
	for i := range rs {
		rs[i].re = regexp.MustCompile(rs[i].Pattern)
	}
	return rs
}

// OBV is the Optimization Behavior Vector: per-behavior occurrence
// counts for one execution.
type OBV [NumBehaviors]int64

// ExtractOBV greps the profile log text with every rule and returns the
// occurrence counts.
func ExtractOBV(logText string) OBV {
	var v OBV
	for _, r := range Rules {
		v[r.Behavior] += int64(len(r.re.FindAllStringIndex(logText, -1)))
	}
	return v
}

// Slice returns the counts as a slice — the wire encoding used by the
// out-of-process execution backend.
func (v OBV) Slice() []int64 {
	out := make([]int64, NumBehaviors)
	copy(out, v[:])
	return out
}

// OBVFromSlice is the decode half of Slice. A length mismatch means the
// two sides disagree on the behavior taxonomy (wire-version skew) and is
// reported as an error rather than silently truncated.
func OBVFromSlice(s []int64) (OBV, error) {
	var v OBV
	if len(s) != NumBehaviors {
		return v, fmt.Errorf("profile: OBV length %d, want %d (behavior-taxonomy skew)", len(s), NumBehaviors)
	}
	copy(v[:], s)
	return v, nil
}

// Add returns the element-wise sum.
func (v OBV) Add(w OBV) OBV {
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Total returns the sum of all counts.
func (v OBV) Total() int64 {
	var t int64
	for _, c := range v {
		t += c
	}
	return t
}

// DistinctTypes returns the number of behaviors with nonzero counts.
func (v OBV) DistinctTypes() int {
	n := 0
	for _, c := range v {
		if c > 0 {
			n++
		}
	}
	return n
}

// Norm is the Euclidean magnitude ||v||.
func (v OBV) Norm() float64 {
	var s float64
	for _, c := range v {
		s += float64(c) * float64(c)
	}
	return math.Sqrt(s)
}

// Delta implements the paper's Formula 2: the Euclidean distance over
// positive increments only,
//
//	Δ = sqrt( Σ_i max(0, child_i − parent_i)² )
//
// Reductions are ignored so the metric rewards newly triggered behavior.
func Delta(parent, child OBV) float64 {
	var s float64
	for i := range parent {
		d := float64(child[i] - parent[i])
		if d > 0 {
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// SumIncrement is the alternative scheme the paper rejects (the plain
// sum of positive increments); kept for TestSumIncrementBias, which
// reproduces the rationale in §3.4.
func SumIncrement(parent, child OBV) float64 {
	var s float64
	for i := range parent {
		if d := child[i] - parent[i]; d > 0 {
			s += float64(d)
		}
	}
	return s
}

// UpdateWeight implements Formula 3: w' = w · (1 + Δ/||child||). When the
// child vector is all-zero the weight is unchanged.
func UpdateWeight(w float64, parent, child OBV) float64 {
	norm := child.Norm()
	if norm == 0 {
		return w
	}
	return w * (1 + Delta(parent, child)/norm)
}

// String renders the nonzero dimensions compactly.
func (v OBV) String() string {
	var b strings.Builder
	b.WriteString("OBV{")
	first := true
	for i, c := range v {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteString(" ")
		}
		first = false
		fmt.Fprintf(&b, "%s:%d", Behavior(i), c)
	}
	b.WriteString("}")
	return b.String()
}
