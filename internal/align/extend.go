package align

// ExtendSeed performs the seed-and-extend step (Algorithm 1, line 12): the
// query is locally aligned against a window of the target centered on the
// seed's diagonal. qOff/tOff locate the matching seed of length k in the
// query and target respectively; pad widens the window to allow gaps.
// The returned coordinates are in full-target space.
func ExtendSeed(query, target []byte, qOff, tOff, k int, sc Scoring, pad int) Result {
	if pad < 0 {
		pad = 0
	}
	start := tOff - qOff - pad
	if start < 0 {
		start = 0
	}
	end := tOff + (len(query) - qOff) + pad
	if end > len(target) {
		end = len(target)
	}
	if start >= end {
		return Result{}
	}
	res := Local(query, target[start:end], sc)
	res.TStart += start
	res.TEnd += start
	return res
}
