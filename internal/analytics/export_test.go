package analytics

// Encodes reports how many rollup windows the engine has encoded for
// RollupPage since it was built.
func (e *Engine) Encodes() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.encodes
}
