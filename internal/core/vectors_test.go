package core

import "nexus/internal/bins"

// vectors is the name the package's tests read a candidate by (Vectors).
func (c *Candidate) vectors() (*bins.Encoded, []float64, error) { return c.Vectors() }
