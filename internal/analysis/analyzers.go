package analysis

// All returns the full secvet suite in its canonical order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Aliasing, Lockcheck, Tracecheck, Auditcheck}
}

// ByName returns the analyzer with the given rule name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
