package hydro

import (
	"repro/internal/array"
	"repro/internal/cca/collective"
	"repro/internal/mesh"
)

// SideOf expresses a mesh decomposition's node field as a collective-port
// Side: rank r of the decomposition owns its (sorted) node ids, grouped
// into contiguous global ranges, with the field's local storage in the same
// order (the layout Decompose produces). Decomposition rank r is world
// rank r.
func SideOf(dec *mesh.Decomposition) (collective.Side, error) {
	p := dec.P
	worldRanks := make([]int, p)
	for i := range worldRanks {
		worldRanks[i] = i
	}
	ranges := make([][]array.IndexRange, p)
	// Reconstruct each rank's sorted owned list from the shared partition
	// (every rank holds the full partition vector, so all members build
	// identical sides — the §6.3 consistency requirement).
	for r := 0; r < p; r++ {
		var cur *array.IndexRange
		for g, owner := range dec.Part {
			if owner != r {
				continue
			}
			if cur != nil && cur.Hi == g {
				cur.Hi = g + 1
				continue
			}
			if cur != nil {
				ranges[r] = append(ranges[r], *cur)
			}
			cur = &array.IndexRange{Lo: g, Hi: g + 1}
		}
		if cur != nil {
			ranges[r] = append(ranges[r], *cur)
		}
	}
	m, err := array.NewIrregularMap(len(dec.Part), ranges)
	if err != nil {
		return collective.Side{}, err
	}
	return collective.Side{Map: m, WorldRanks: worldRanks}, nil
}
