// Package userstudy simulates the paper's 150-subject Amazon MTurk study
// (Tables 2–3). Human subjects cannot be recruited inside a reproduction, so
// each simulated rater scores an explanation on 1–5 by the criteria the
// paper's subjects evidently applied: coverage of the real (planted)
// confounding concepts, precision (no irrelevant attributes), and a penalty
// for redundant near-duplicates — plus per-rater noise. What the harness
// checks is the *ordering* of methods, not absolute scores.
package userstudy

import (
	"strings"

	"nexus/internal/stats"
)

// Concept is one ground-truth confounding concept with its acceptable
// surface forms (synonym attribute names; matching is substring-based, so
// "GDP" matches "GDP Rank" and "GDP Nominal").
type Concept struct {
	Name     string
	Synonyms []string
}

// GroundTruth is the planted confounder set for one query.
type GroundTruth struct {
	Concepts []Concept
}

// GT builds a ground truth from concept synonym lists.
func GT(concepts ...[]string) GroundTruth {
	g := GroundTruth{}
	for _, syns := range concepts {
		g.Concepts = append(g.Concepts, Concept{Name: syns[0], Synonyms: syns})
	}
	return g
}

// matchConcept returns the index of the concept attr belongs to, or -1.
func (g GroundTruth) matchConcept(attr string) int {
	la := strings.ToLower(attr)
	for i, c := range g.Concepts {
		for _, s := range c.Synonyms {
			if strings.Contains(la, strings.ToLower(s)) {
				return i
			}
		}
	}
	return -1
}

// Breakdown details how an explanation relates to the ground truth.
type Breakdown struct {
	Covered    int // distinct concepts covered
	Redundant  int // extra attributes matching an already-covered concept
	Irrelevant int // attributes matching no concept
	Size       int
}

// Analyze classifies an explanation's attributes against the ground truth.
func (g GroundTruth) Analyze(attrs []string) Breakdown {
	b := Breakdown{Size: len(attrs)}
	covered := make(map[int]bool)
	for _, a := range attrs {
		ci := g.matchConcept(a)
		switch {
		case ci < 0:
			b.Irrelevant++
		case covered[ci]:
			b.Redundant++
		default:
			covered[ci] = true
		}
	}
	b.Covered = len(covered)
	return b
}

// Quality maps a breakdown to [0, 1]: coverage dominates, precision and
// redundancy adjust.
func (g GroundTruth) Quality(attrs []string) float64 {
	if len(attrs) == 0 {
		return 0
	}
	b := g.Analyze(attrs)
	coverage := float64(b.Covered) / float64(len(g.Concepts))
	precision := float64(b.Covered) / float64(b.Size)
	q := 0.55*coverage + 0.45*precision - 0.25*float64(b.Redundant)/float64(b.Size)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return q
}

// panelRaters is the number of simulated raters (paper: 150); panelNoise is
// the standard deviation of each rater's individual noise.
const panelRaters, panelNoise = 150, 0.7

// Panel is a deterministic pool of simulated raters.
type Panel struct {
	Seed uint64
}

// NewPanel returns the paper-sized panel.
func NewPanel(seed uint64) *Panel { return &Panel{Seed: seed} }

// Judgement holds a panel's aggregated rating of one explanation.
type Judgement struct {
	Mean     float64
	Variance float64
	Scores   []float64
}

// Rate scores one explanation against one ground truth: every rater sees
// quality mapped to the 1–5 scale plus individual noise, clipped to [1, 5].
// A failed (empty) explanation scores 1 from every rater.
func (p *Panel) Rate(attrs []string, gt GroundTruth) Judgement {
	rng := stats.NewRNG(p.Seed)
	j := Judgement{Scores: make([]float64, panelRaters)}
	base := 1 + 4*gt.Quality(attrs)
	for i := 0; i < panelRaters; i++ {
		s := base + panelNoise*rng.Norm()
		if s < 1 {
			s = 1
		}
		if s > 5 {
			s = 5
		}
		j.Scores[i] = s
		j.Mean += s
	}
	j.Mean /= panelRaters
	for _, s := range j.Scores {
		d := s - j.Mean
		j.Variance += d * d
	}
	j.Variance /= panelRaters
	return j
}
