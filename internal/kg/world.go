package kg

import (
	"fmt"
	"math"
	"sort"

	"nexus/internal/stats"
)

// WorldConfig controls the synthetic DBpedia-like world generator: the seed.
// Everything else about the world is fixed by the constants below.
type WorldConfig struct {
	Seed uint64
}

// The size of the generated world, chosen so each dataset's entity count and
// candidate space reach the paper's scale (Table 1).
const (
	numCountries = 188 // the Covid-19 dataset size
	numCities    = 320
	numAirlines  = 14
	numPeople    = 1647 // the Forbes dataset size

	// Extra synthetic properties per class.
	countryFillers = 330
	cityFillers    = 420
	personFillers  = 300
)

// The sparsity of the generated graph, matching the prevalence numbers of the
// paper's §5.2.
const (
	// Baseline probability that a property value is absent from the graph
	// (the MCAR component), per class.
	countryMissing = 0.30
	cityMissing    = 0.38
	personMissing  = 0.45
	// biasedFraction is the fraction of properties whose missingness is
	// value-dependent (selection bias, §3.2).
	biasedFraction = 0.15
)

// Country records the ground-truth latent and realized values of a country.
// The workload generators draw outcomes from these values — even when the
// corresponding KG property was dropped by the sparsity process — which is
// exactly what makes missing data biasing.
type Country struct {
	ID        EntityID
	Name      string
	Continent string
	Currency  string
	WHORegion string
	Language  string

	Dev  float64 // latent development score ~ N(0,1)
	Size float64 // latent log-population

	HDI        float64
	GDP        float64 // per-capita
	Gini       float64
	Density    float64
	Population float64
	MedianInc  float64
}

// City records ground truth for a (US) city.
type City struct {
	ID    EntityID
	Name  string
	State string

	Climate float64 // latent weather severity (drives delays)
	Size    float64 // latent log-population

	YearLowF    float64
	PrecipDays  float64
	PrecipInch  float64
	Population  float64
	Density     float64
	MedianInc   float64
	Metro       float64
	SecurityIdx float64 // drives security delay
}

// State records ground truth for a US state.
type State struct {
	ID   EntityID
	Name string

	Climate float64
	Size    float64

	YearSnow   float64
	YearLowF   float64
	Population float64
	Density    float64
	MedianInc  float64
}

// Airline records ground truth for an airline.
type Airline struct {
	ID   EntityID
	Name string

	Quality float64 // latent operational quality (reduces delay)

	FleetSize float64
	Equity    float64
	NetIncome float64
	Revenue   float64
	Employees float64
}

// Person records ground truth for a celebrity.
type Person struct {
	ID       EntityID
	Name     string
	Category string // Actors, Directors/Producers, Athletes, Musicians, Authors
	Gender   string

	Fame float64 // latent fame (drives pay)

	NetWorth  float64
	Age       float64
	Awards    float64
	YearsAct  float64
	Cups      float64 // athletes
	DraftPick float64 // athletes
}

// World bundles the generated graph with the ground-truth records the
// workload generators consume.
type World struct {
	Graph *Graph

	Countries []Country
	Cities    []City
	States    []State
	Airlines  []Airline
	People    []Person

	CountryIdx map[string]int // name → index into Countries
	CityIdx    map[string]int
	StateIdx   map[string]int
	AirlineIdx map[string]int
	PersonIdx  map[string]int

	// BiasedProps lists "class/property" pairs whose missingness process is
	// value-dependent (used by tests and the §5.2 report).
	BiasedProps map[string]bool
}

// NewWorld generates the synthetic world deterministically from seed.
func NewWorld(cfg WorldConfig) *World {
	w := &World{
		Graph:       NewGraph(),
		CountryIdx:  make(map[string]int),
		CityIdx:     make(map[string]int),
		StateIdx:    make(map[string]int),
		AirlineIdx:  make(map[string]int),
		PersonIdx:   make(map[string]int),
		BiasedProps: make(map[string]bool),
	}
	rng := stats.NewRNG(cfg.Seed)
	w.genContinentsAndCurrencies(rng.Split())
	w.genCountries(rng.Split())
	w.genStatesAndCities(rng.Split())
	w.genAirlines(rng.Split())
	w.genPeople(rng.Split())
	return w
}

// realCountries pairs prominent real country names with their continent and
// currency; the remainder of the roster is generated procedurally.
var realCountries = []struct{ name, continent, currency, who string }{
	{"United States", "North America", "US Dollar", "Region of the Americas"},
	{"Germany", "Europe", "Euro", "European Region"},
	{"France", "Europe", "Euro", "European Region"},
	{"Italy", "Europe", "Euro", "European Region"},
	{"Spain", "Europe", "Euro", "European Region"},
	{"Portugal", "Europe", "Euro", "European Region"},
	{"Netherlands", "Europe", "Euro", "European Region"},
	{"Belgium", "Europe", "Euro", "European Region"},
	{"Austria", "Europe", "Euro", "European Region"},
	{"Greece", "Europe", "Euro", "European Region"},
	{"Ireland", "Europe", "Euro", "European Region"},
	{"Finland", "Europe", "Euro", "European Region"},
	{"United Kingdom", "Europe", "Pound Sterling", "European Region"},
	{"Switzerland", "Europe", "Swiss Franc", "European Region"},
	{"Norway", "Europe", "Norwegian Krone", "European Region"},
	{"Sweden", "Europe", "Swedish Krona", "European Region"},
	{"Denmark", "Europe", "Danish Krone", "European Region"},
	{"Poland", "Europe", "Zloty", "European Region"},
	{"Czechia", "Europe", "Koruna", "European Region"},
	{"Hungary", "Europe", "Forint", "European Region"},
	{"Romania", "Europe", "Leu", "European Region"},
	{"Ukraine", "Europe", "Hryvnia", "European Region"},
	{"Russia", "Europe", "Ruble", "European Region"},
	{"Turkey", "Asia", "Lira", "European Region"},
	{"China", "Asia", "Renminbi", "Western Pacific Region"},
	{"Japan", "Asia", "Yen", "Western Pacific Region"},
	{"South Korea", "Asia", "Won", "Western Pacific Region"},
	{"India", "Asia", "Rupee", "South-East Asia Region"},
	{"Indonesia", "Asia", "Rupiah", "South-East Asia Region"},
	{"Thailand", "Asia", "Baht", "South-East Asia Region"},
	{"Vietnam", "Asia", "Dong", "Western Pacific Region"},
	{"Philippines", "Asia", "Peso", "Western Pacific Region"},
	{"Malaysia", "Asia", "Ringgit", "Western Pacific Region"},
	{"Singapore", "Asia", "Singapore Dollar", "Western Pacific Region"},
	{"Israel", "Asia", "Shekel", "European Region"},
	{"Saudi Arabia", "Asia", "Riyal", "Eastern Mediterranean Region"},
	{"Iran", "Asia", "Rial", "Eastern Mediterranean Region"},
	{"Iraq", "Asia", "Dinar", "Eastern Mediterranean Region"},
	{"Pakistan", "Asia", "Pakistani Rupee", "Eastern Mediterranean Region"},
	{"Bangladesh", "Asia", "Taka", "South-East Asia Region"},
	{"Canada", "North America", "Canadian Dollar", "Region of the Americas"},
	{"Mexico", "North America", "Mexican Peso", "Region of the Americas"},
	{"Guatemala", "North America", "Quetzal", "Region of the Americas"},
	{"Cuba", "North America", "Cuban Peso", "Region of the Americas"},
	{"Brazil", "South America", "Real", "Region of the Americas"},
	{"Argentina", "South America", "Argentine Peso", "Region of the Americas"},
	{"Chile", "South America", "Chilean Peso", "Region of the Americas"},
	{"Colombia", "South America", "Colombian Peso", "Region of the Americas"},
	{"Peru", "South America", "Sol", "Region of the Americas"},
	{"Venezuela", "South America", "Bolivar", "Region of the Americas"},
	{"Egypt", "Africa", "Egyptian Pound", "Eastern Mediterranean Region"},
	{"Nigeria", "Africa", "Naira", "African Region"},
	{"South Africa", "Africa", "Rand", "African Region"},
	{"Kenya", "Africa", "Kenyan Shilling", "African Region"},
	{"Ethiopia", "Africa", "Birr", "African Region"},
	{"Ghana", "Africa", "Cedi", "African Region"},
	{"Morocco", "Africa", "Dirham", "Eastern Mediterranean Region"},
	{"Algeria", "Africa", "Algerian Dinar", "African Region"},
	{"Tanzania", "Africa", "Tanzanian Shilling", "African Region"},
	{"Australia", "Oceania", "Australian Dollar", "Western Pacific Region"},
	{"New Zealand", "Oceania", "New Zealand Dollar", "Western Pacific Region"},
}

var continentNames = []string{"Europe", "Asia", "Africa", "North America", "South America", "Oceania"}

// whoRegions use the WHO's official region names, which do not collide with
// continent entity names (a collision would make the entity linker resolve
// WHO-Region values to Continent entities).
var whoRegions = []string{"European Region", "Region of the Americas", "African Region", "South-East Asia Region", "Western Pacific Region", "Eastern Mediterranean Region"}

// whoRegionFor maps a continent to its predominant WHO region (with a small
// chance of a neighbouring region), so WHO-Region is a meaningful exposure
// correlated with development via continent composition.
func whoRegionFor(continent string, rng *stats.RNG) string {
	if rng.Float64() < 0.06 {
		return whoRegions[rng.Intn(len(whoRegions))]
	}
	switch continent {
	case "Europe":
		return "European Region"
	case "Africa":
		return "African Region"
	case "North America", "South America":
		return "Region of the Americas"
	case "Oceania":
		return "Western Pacific Region"
	default: // Asia
		return []string{"South-East Asia Region", "Western Pacific Region", "Eastern Mediterranean Region"}[rng.Intn(3)]
	}
}

func (w *World) genContinentsAndCurrencies(rng *stats.RNG) {
	g := w.Graph
	for i, name := range continentNames {
		id := g.AddEntity(name, "Continent")
		// Continent-level aggregates used by SO Q2 explanations.
		devBias := []float64{0.9, 0.1, -0.9, 0.7, -0.2, 0.6}[i]
		g.Set(id, "GDP", Num(math.Exp(9+1.1*devBias)*(0.9+0.2*rng.Float64())))
		g.Set(id, "Density", Num(math.Exp(3.5+0.8*rng.Norm())))
		g.Set(id, "Area Rank", Num(float64(1+rng.Intn(6))))
		g.Set(id, "Population Total", Num(math.Exp(20+0.5*rng.Norm())))
		g.Set(id, "Number of Countries", Num(float64(10+rng.Intn(50))))
		g.Set(id, "Type", Str("Continent"))
		for f := 0; f < 30; f++ {
			g.Set(id, fmt.Sprintf("Continent Indicator %03d", f), Num(rng.Norm()))
		}
	}
	for _, r := range whoRegions {
		id := g.AddEntity(r, "WHORegion")
		g.Set(id, "Region Population", Num(math.Exp(20+0.5*rng.Norm())))
		g.Set(id, "Member States", Num(float64(10+rng.Intn(40))))
		g.Set(id, "Type", Str("WHORegion"))
	}
}

func (w *World) genCountries(rng *stats.RNG) {
	g := w.Graph

	type roster struct{ name, continent, currency, who string }
	countries := make([]roster, 0, numCountries)
	for _, rc := range realCountries {
		if len(countries) == numCountries {
			break
		}
		countries = append(countries, roster{rc.name, rc.continent, rc.currency, rc.who})
	}
	syllA := []string{"Al", "Be", "Cor", "Dra", "El", "Fa", "Gor", "Hel", "Is", "Ju", "Kal", "Lor", "Mar", "Nor", "Or", "Pal", "Qua", "Ras", "Sel", "Tor", "Ur", "Val", "Wes", "Xan", "Yor", "Zan"}
	syllB := []string{"dova", "land", "mia", "nia", "ria", "stan", "tova", "vania", "waro", "zia"}
	for i := 0; len(countries) < numCountries; i++ {
		name := syllA[i%len(syllA)] + syllB[(i/len(syllA))%len(syllB)]
		if i >= len(syllA)*len(syllB) {
			name = fmt.Sprintf("%s %d", name, i)
		}
		ci := rng.Intn(len(continentNames))
		countries = append(countries, roster{
			name:      name,
			continent: continentNames[ci],
			currency:  name + " Dollar",
			who:       whoRegionFor(continentNames[ci], rng),
		})
	}

	// Decide which fillers correlate with development and which properties
	// carry selection bias. Property decisions are global per class.
	fillerCorr := make([]float64, countryFillers)
	for f := range fillerCorr {
		if rng.Float64() < 0.2 {
			fillerCorr[f] = 0.3 + 0.3*rng.Float64() // development-correlated filler
		}
	}

	languages := []string{"English", "Spanish", "French", "Arabic", "Mandarin", "Hindi", "Portuguese", "Russian", "German", "Japanese", "Swahili", "Malay"}

	for idx, r := range countries {
		dev := rng.Norm()
		size := 15 + 2*rng.Norm() // log population
		c := Country{
			Name:      r.name,
			Continent: r.continent,
			Currency:  r.currency,
			WHORegion: r.who,
			Language:  languages[rng.Intn(len(languages))],
			Dev:       dev,
			Size:      size,
		}
		// European countries cluster at high development with low spread —
		// this makes HDI a bad explanation *within* Europe (paper Ex. 2.4).
		if r.continent == "Europe" {
			dev = 1.1 + 0.08*rng.Norm()
			c.Dev = dev
		}
		c.HDI = clamp(0.72+0.10*dev+0.01*rng.Norm(), 0.30, 0.99)
		c.GDP = math.Exp(9.2 + 1.0*dev + 0.22*rng.Norm())
		c.Gini = clamp(38-3.5*dev+4*rng.Norm(), 20, 65)
		c.Density = math.Exp(4 + 1.0*rng.Norm())
		c.Population = math.Exp(size)
		c.MedianInc = c.GDP * (0.5 + 0.1*rng.Norm())

		id := g.AddEntity(r.name, "Country")
		c.ID = id
		w.Countries = append(w.Countries, c)
		w.CountryIdx[r.name] = idx

		g.Set(id, "HDI", Num(c.HDI))
		g.Set(id, "GDP", Num(c.GDP))
		g.Set(id, "GDP Nominal", Num(c.GDP*c.Population))
		g.Set(id, "Gini", Num(c.Gini))
		g.Set(id, "Density", Num(c.Density))
		g.Set(id, "Population Census", Num(c.Population*(1+0.01*rng.Norm())))
		g.Set(id, "Population Estimate", Num(c.Population*(1+0.02*rng.Norm())))
		g.Set(id, "Population Total", Num(c.Population))
		g.Set(id, "Area Km", Num(c.Population/c.Density))
		g.Set(id, "Median Household Income", Num(c.MedianInc))
		g.Set(id, "Continent", Str(r.continent))
		g.Set(id, "Language", Str(c.Language))
		g.Set(id, "Established Date", Num(float64(1200+rng.Intn(800))))
		g.Set(id, "Time Zone", Str(fmt.Sprintf("UTC%+d", rng.Intn(25)-12)))
		g.Set(id, "Calling Code", Num(float64(1+rng.Intn(998))))
		g.Set(id, "wikiID", Str(fmt.Sprintf("Q%06d", 100000+idx)))
		g.Set(id, "Type", Str("Country"))

		// Currency entity (shared by euro-zone countries → Table 4 group).
		// Currencies carry their own second-hop property space (exchange
		// statistics), mirroring DBpedia's dense deeper hops (§5.4).
		cur := g.AddEntity(r.currency, "Currency")
		g.Set(cur, "Currency Symbol", Str(r.currency[:1]))
		g.Set(cur, "Type", Str("Currency"))
		// Second-hop property spaces draw from an independent stream so
		// they do not perturb the primary generation sequence.
		hopRNG := stats.NewRNG(0xC0FFEE ^ uint64(idx)*2654435761)
		g.Set(cur, "Adoption Year", Num(float64(1800+hopRNG.Intn(220))))
		for f := 0; f < 40; f++ {
			g.Set(cur, fmt.Sprintf("Exchange Stat %03d", f), Num(hopRNG.Norm()))
		}
		g.Set(id, "Currency", Ent(cur))

		// Leader entity (2-hop properties: Leader Age, Leader Gender, plus
		// a biography property space).
		leader := g.AddEntity("Leader of "+r.name, "Leader")
		g.Set(leader, "Age", Num(float64(40+rng.Intn(45))))
		g.Set(leader, "Gender", Str([]string{"male", "female"}[boolToInt(rng.Float64() < 0.25)]))
		g.Set(leader, "Type", Str("Leader"))
		g.Set(leader, "Years in Office", Num(float64(1+hopRNG.Intn(20))))
		g.Set(leader, "Party Seats", Num(float64(hopRNG.Intn(400))))
		for f := 0; f < 60; f++ {
			g.Set(leader, fmt.Sprintf("Biography Stat %03d", f), Num(hopRNG.Norm()))
		}
		g.Set(id, "Leader", Ent(leader))

		// Ethnic groups (one-to-many, each with Population size).
		ng := 1 + rng.Intn(4)
		for e := 0; e < ng; e++ {
			eg := g.AddEntity(fmt.Sprintf("%s Ethnic Group %d", r.name, e), "EthnicGroup")
			g.Set(eg, "Population size", Num(c.Population*(0.1+0.8*rng.Float64())/float64(ng)))
			g.Set(eg, "Type", Str("EthnicGroup"))
			g.Add(id, "Ethnic Group", Ent(eg))
		}

		// Continent entity reference (allows 2-hop extraction).
		if cid, ok := g.Lookup(r.continent); ok {
			g.Set(id, "Continent Entity", Ent(cid))
		}

		// Filler properties. Development-correlated fillers get a telling
		// name — they are the analogue of DBpedia's secondary development
		// statistics (life expectancy, literacy, ...) and are legitimate
		// confounders; pure-noise fillers keep the anonymous name.
		for f := 0; f < countryFillers; f++ {
			if f%7 == 3 {
				// Low-cardinality categorical filler.
				g.Set(id, fmt.Sprintf("Code Group %03d", f), Str(fmt.Sprintf("G%d", rng.Intn(4))))
				continue
			}
			name := fmt.Sprintf("Indicator %03d", f)
			if fillerCorr[f] != 0 {
				name = fmt.Sprintf("Development Index %03d", f)
			}
			v := fillerCorr[f]*dev + math.Sqrt(1-fillerCorr[f]*fillerCorr[f])*rng.Norm()
			g.Set(id, name, Num(v))
		}
	}

	// Derived ranks (computed over the realized values, like DBpedia's
	// "<X> Rank" properties) — near-deterministic functions of their base
	// attributes, exercising the redundancy machinery.
	w.setRank("HDI Rank", func(c *Country) float64 { return -c.HDI })
	w.setRank("GDP Rank", func(c *Country) float64 { return -c.GDP })
	w.setRank("Gini Rank", func(c *Country) float64 { return -c.Gini })
	w.setRank("Area Rank", func(c *Country) float64 { return -(c.Population / c.Density) })
	w.setRank("Population Rank", func(c *Country) float64 { return -c.Population })

	// Sparsity + selection bias over country properties.
	w.injectMissing(rng, "Country", countryMissing, biasedFraction,
		[]string{"Type", "wikiID", "Continent"}) // keep these always present
}

// setRank assigns 1-based rank properties to all countries ordered by key.
func (w *World) setRank(prop string, key func(*Country) float64) {
	idx := make([]int, len(w.Countries))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return key(&w.Countries[idx[a]]) < key(&w.Countries[idx[b]]) })
	for rank, i := range idx {
		w.Graph.Set(w.Countries[i].ID, prop, Num(float64(rank+1)))
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
