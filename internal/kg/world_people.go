package kg

import (
	"fmt"
	"math"

	"nexus/internal/stats"
)

// PersonCategories are the Forbes celebrity categories. Property coverage
// differs sharply across categories (e.g. only Athletes have Cups/Draft
// Pick), which is what drives the paper's 73% missing-value rate for Forbes.
var PersonCategories = []string{"Actors", "Directors/Producers", "Athletes", "Musicians", "Authors"}

var firstNames = []string{
	"Ava", "Ben", "Cleo", "Dan", "Elle", "Finn", "Gia", "Hugo", "Ivy", "Jack",
	"Kira", "Liam", "Mona", "Noah", "Opal", "Pete", "Quinn", "Rosa", "Seth", "Tara",
}

var lastNames = []string{
	"Adler", "Brooks", "Castillo", "Dumont", "Ellis", "Fontaine", "Garcia",
	"Hayes", "Ishikawa", "Jensen", "Kovacs", "Laurent", "Mendez", "Novak",
	"Okafor", "Petrov", "Quintana", "Romano", "Silva", "Tanaka",
}

func (w *World) genPeople(rng *stats.RNG) {
	g := w.Graph

	fillerCorr := make([]float64, personFillers)
	for f := range fillerCorr {
		if rng.Float64() < 0.2 {
			fillerCorr[f] = 0.4 + 0.4*rng.Float64()
		}
	}

	citizenships := []string{"United States", "United Kingdom", "Canada", "Australia", "France", "Germany", "Brazil", "Spain", "Japan", "Mexico"}

	for idx := 0; idx < numPeople; idx++ {
		cat := PersonCategories[rng.Choice([]float64{0.3, 0.15, 0.3, 0.15, 0.1})]
		name := fmt.Sprintf("%s %s", firstNames[rng.Intn(len(firstNames))], lastNames[rng.Intn(len(lastNames))])
		// Ensure uniqueness by suffixing a serial when needed.
		if _, taken := g.Lookup(name); taken {
			name = fmt.Sprintf("%s %d", name, idx)
		}
		fame := rng.Norm()
		gender := []string{"male", "female"}[boolToInt(rng.Float64() < 0.4)]
		p := Person{
			Name:     name,
			Category: cat,
			Gender:   gender,
			Fame:     fame,
			NetWorth: math.Exp(16 + 1.1*fame + 0.3*rng.Norm()),
			Age:      clamp(40+12*rng.Norm(), 18, 90),
			YearsAct: clamp(15+8*rng.Norm()+4*fame, 1, 60),
		}
		p.Awards = math.Max(0, math.Floor(2+3*fame+2*rng.Norm()))
		if cat == "Athletes" {
			p.Cups = math.Max(0, math.Floor(1.5+2.5*fame+1.5*rng.Norm()))
			p.DraftPick = clamp(math.Floor(16-8*fame+6*rng.Norm()), 1, 60)
		}
		id := g.AddEntity(name, "Person")
		p.ID = id
		w.People = append(w.People, p)
		w.PersonIdx[name] = idx

		g.Set(id, "Net Worth", Num(p.NetWorth))
		g.Set(id, "Age", Num(p.Age))
		g.Set(id, "Gender", Str(gender))
		g.Set(id, "Citizenship", Str(citizenships[rng.Intn(len(citizenships))]))
		g.Set(id, "Years Active", Num(p.YearsAct))
		g.Set(id, "ActiveSince", Num(2015-p.YearsAct))
		g.Set(id, "wikiID", Str(fmt.Sprintf("QP%05d", idx)))
		g.Set(id, "Type", Str("Person"))

		switch cat {
		case "Actors", "Directors/Producers":
			g.Set(id, "Awards", Num(p.Awards))
			g.Set(id, "Honors", Num(math.Max(0, math.Floor(1+2*fame+rng.Norm()))))
			g.Set(id, "Movies", Num(math.Max(1, math.Floor(20+10*rng.Norm()))))
			g.Set(id, "Studio", Str(fmt.Sprintf("Studio %d", rng.Intn(8))))
		case "Athletes":
			g.Set(id, "Cups", Num(p.Cups))
			g.Set(id, "National Cups", Num(math.Max(0, p.Cups-math.Floor(1+rng.Float64()*2))))
			g.Set(id, "Total Cups", Num(p.Cups+math.Max(0, math.Floor(rng.Norm()+1))))
			g.Set(id, "Draft Pick", Num(p.DraftPick))
			g.Set(id, "Team", Str(fmt.Sprintf("Team %d", rng.Intn(30))))
			g.Set(id, "Sport", Str([]string{"Basketball", "Football", "Tennis", "Soccer", "Baseball"}[rng.Intn(5)]))
		case "Musicians":
			g.Set(id, "Albums", Num(math.Max(1, math.Floor(8+4*rng.Norm()))))
			g.Set(id, "Grammy Awards", Num(math.Max(0, math.Floor(1+2*fame+rng.Norm()))))
			g.Set(id, "Genre", Str([]string{"Pop", "Rock", "HipHop", "Country", "Jazz"}[rng.Intn(5)]))
		case "Authors":
			g.Set(id, "Books", Num(math.Max(1, math.Floor(10+5*rng.Norm()))))
			g.Set(id, "Bestsellers", Num(math.Max(0, math.Floor(1+2*fame+rng.Norm()))))
		}

		// Category-scoped fillers: each filler property only exists for two
		// of the five categories, amplifying structural missingness.
		catIdx := indexOf(PersonCategories, cat)
		for f := 0; f < personFillers; f++ {
			if (f+catIdx)%3 != 0 {
				continue
			}
			if f%8 == 5 {
				g.Set(id, fmt.Sprintf("Person Code %03d", f), Str(fmt.Sprintf("P%d", rng.Intn(4))))
				continue
			}
			corr := fillerCorr[f]
			name := fmt.Sprintf("Person Indicator %03d", f)
			if corr != 0 {
				name = fmt.Sprintf("Prominence Index %03d", f)
			}
			v := corr*fame + math.Sqrt(1-corr*corr)*rng.Norm()
			g.Set(id, name, Num(v))
		}
	}

	w.injectMissing(rng, "Person", personMissing, biasedFraction, []string{"Type", "wikiID"})
}

func indexOf(xs []string, v string) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
