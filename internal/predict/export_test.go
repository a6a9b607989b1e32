package predict

// WindowFor exposes the current warm window of fn to the tests; ok is
// false before the function's first invocation.
func (w *Wild) WindowFor(fn int) (lo, hi int, ok bool) {
	if fn < 0 || fn >= len(w.warmLo) || w.warmLo[fn] < 0 {
		return 0, 0, false
	}
	return w.warmLo[fn], w.warmHi[fn], true
}
