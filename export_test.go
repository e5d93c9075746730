package nexus

// RefinementAttrCount is how many dimensions the subgroup search of a's
// reports refines over, for the effort gate in the external tests.
func RefinementAttrCount(a *Analysis) (int, error) {
	attrs, err := a.refinementAttrs()
	return len(attrs), err
}
