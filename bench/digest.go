package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"nexus"
	"nexus/internal/subgroups"
)

// answer is what one op returned to its caller, reduced to the parts the
// output check compares: the explanation (attribute names, origins and
// responsibilities) and the unexplained subgroups (conditions and sizes).
type answer struct {
	Attrs  []answerAttr
	Groups []answerGroup
}

type answerAttr struct {
	Name, Origin   string
	Responsibility float64
}

type answerGroup struct {
	Conditions string
	Size       int
}

func answerOf(rep *nexus.Report, groups []subgroups.Group) answer {
	var a answer
	for _, at := range rep.Explanation.Attrs {
		a.Attrs = append(a.Attrs, answerAttr{at.Name, string(at.Origin), at.Responsibility})
	}
	for _, g := range groups {
		a.Groups = append(a.Groups, answerGroup{g.String(), g.Size})
	}
	return a
}

func (a answer) names() []string {
	out := make([]string, len(a.Attrs))
	for i, at := range a.Attrs {
		out[i] = at.Name
	}
	return out
}

// digest folds the answer into a short hex token. Responsibilities enter as
// their IEEE-754 bits, so a result that differs in the last place differs in
// the digest.
func (a answer) digest() string {
	h := sha256.New()
	for _, at := range a.Attrs {
		fmt.Fprintf(h, "attr|%s|%s|%016x\n", at.Name, at.Origin, math.Float64bits(at.Responsibility))
	}
	for _, g := range a.Groups {
		fmt.Fprintf(h, "group|%s|%d\n", g.Conditions, g.Size)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
