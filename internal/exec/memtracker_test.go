package exec

// Budget returns the soft spill threshold (<= 0 means unlimited).
func (t *MemTracker) Budget() int64 {
	if t == nil {
		return 0
	}
	return t.budget
}

// Used returns the bytes currently charged.
func (t *MemTracker) Used() int64 {
	if t == nil {
		return 0
	}
	return t.used.Load()
}
