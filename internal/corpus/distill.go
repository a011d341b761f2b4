package corpus

import "sort"

// DefaultDistillSpread is the minimum pairwise distance a kept seed
// must add to the distilled subset. Seeds closer than this to an
// already-kept seed are redundant: their OBV fingerprint, coverage
// footprint, and shape are near-duplicates, so fuzzing both buys
// little over fuzzing one twice.
const DefaultDistillSpread = 0.05

// Distill selects the minimal maximally-diverse subset of a scored
// corpus by greedy farthest-point traversal: start from the seed with
// the highest diversity score, then repeatedly add the seed farthest
// from everything already kept, stopping when the best remaining
// candidate is within spread of the kept set (spread <= 0 uses
// DefaultDistillSpread). maxKeep > 0 caps the subset size. Returns the
// kept indices in ascending order. Fully deterministic: ties break
// toward the lower index.
func Distill(fs []*Features, spread float64, maxKeep int) []int {
	if len(fs) == 0 {
		return nil
	}
	if spread <= 0 {
		spread = DefaultDistillSpread
	}
	div := DiversityScores(fs)
	start := 0
	for i, d := range div {
		if d > div[start] {
			start = i
		}
	}

	kept := []int{start}
	// minDist[i] tracks each candidate's distance to its nearest kept
	// seed; farthest-point adds the argmax each step.
	minDist := make([]float64, len(fs))
	for i := range fs {
		if i != start {
			minDist[i] = Distance(fs[i], fs[start])
		}
	}
	taken := make([]bool, len(fs))
	taken[start] = true

	for maxKeep <= 0 || len(kept) < maxKeep {
		best, bestDist := -1, 0.0
		for i := range fs {
			if taken[i] {
				continue
			}
			if best == -1 || minDist[i] > bestDist {
				best, bestDist = i, minDist[i]
			}
		}
		if best == -1 || bestDist < spread {
			break
		}
		kept = append(kept, best)
		taken[best] = true
		for i := range fs {
			if !taken[i] {
				if d := Distance(fs[i], fs[best]); d < minDist[i] {
					minDist[i] = d
				}
			}
		}
	}

	// Selection order is farthest-point order; report in corpus order.
	sort.Ints(kept)
	return kept
}

// SeedScore is one seed's entry in a distillation report.
type SeedScore struct {
	Name      string    `json:"name"`
	Diversity float64   `json:"diversity"`
	Kept      bool      `json:"kept"`
	Features  *Features `json:"features,omitempty"`
}

// DistillReport is the JSON result of a distillation pass — the shape
// `mopfuzzer -distill` prints and POST /corpus/distill returns.
type DistillReport struct {
	Submitted int     `json:"submitted"`
	Kept      int     `json:"kept"`
	Spread    float64 `json:"spread"`
	// KeptSeeds lists the kept seed names in corpus order.
	KeptSeeds []string    `json:"kept_seeds"`
	Scores    []SeedScore `json:"scores"`
}

// BuildDistillReport runs Distill over scored features and assembles
// the report.
func BuildDistillReport(fs []*Features, spread float64, maxKeep int) *DistillReport {
	if spread <= 0 {
		spread = DefaultDistillSpread
	}
	keptIdx := Distill(fs, spread, maxKeep)
	keptSet := map[int]bool{}
	for _, i := range keptIdx {
		keptSet[i] = true
	}
	div := DiversityScores(fs)
	rep := &DistillReport{Submitted: len(fs), Kept: len(keptIdx), Spread: spread}
	for _, i := range keptIdx {
		rep.KeptSeeds = append(rep.KeptSeeds, fs[i].Name)
	}
	for i, f := range fs {
		rep.Scores = append(rep.Scores, SeedScore{
			Name:      f.Name,
			Diversity: div[i],
			Kept:      keptSet[i],
			Features:  f,
		})
	}
	return rep
}
