package core

import (
	"math/rand"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
	"mloc/internal/cache"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/plod"
	"mloc/internal/query"
)

// diffStore is one store variant of the differential test.
type diffStore struct {
	name string
	st   *Store
}

// diffStores builds the layouts the differential test compares over one
// 48×48 field: flat, hierarchical, adaptive (hierarchical with re-split
// bins), and floats mode (lossless ISOBAR). The first entry is the flat
// reference the hierarchical store must agree with at every level.
func diffStores(t *testing.T) ([]diffStore, []float64, grid.Shape) {
	t.Helper()
	d := datagen.GTSLike(48, 48, 7)
	v, err := d.Var("phi")
	if err != nil {
		t.Fatal(err)
	}
	fs := pfs.New(pfs.DefaultConfig())
	cfg := DefaultConfig([]int{8, 8})
	cfg.NumBins = 16
	cfg.SampleSize = 1024
	hier := cfg
	hier.HierarchicalIndex = true
	adapt := hier
	adapt.AdaptiveBins = true
	floats := ISOConfig([]int{8, 8})
	floats.NumBins = 16
	floats.SampleSize = 1024
	var out []diffStore
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"flat", cfg}, {"hier", hier}, {"adapt", adapt}, {"floats", floats}} {
		st, err := Build(fs, pfs.NewClock(), "diff/"+c.name, d.Shape, v.Data, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffStore{c.name, st})
	}
	return out, v.Data, d.Shape
}

// diffCase is one seeded random request and its rank count.
type diffCase struct {
	req   *query.Request
	ranks int
}

// diffCases draws n requests mixing VC, SC, IndexOnly, PLoD levels 1–7
// (and the 0 default) and 1–4 ranks.
func diffCases(seed int64, n int, data []float64, shape grid.Shape) []diffCase {
	r := rand.New(rand.NewSource(seed))
	lo, hi := dataRange(data)
	out := make([]diffCase, n)
	for i := range out {
		req := &query.Request{}
		if r.Intn(4) > 0 {
			a, b := lo+r.Float64()*(hi-lo), lo+r.Float64()*(hi-lo)
			if a > b {
				a, b = b, a
			}
			req.VC = &binning.ValueConstraint{Min: a, Max: b}
		}
		if r.Intn(2) == 0 {
			x0, y0 := r.Intn(shape[0]), r.Intn(shape[1])
			x1, y1 := x0+1+r.Intn(shape[0]-x0), y0+1+r.Intn(shape[1]-y0)
			req.SC = &grid.Region{Lo: []int{x0, y0}, Hi: []int{x1, y1}}
		}
		req.IndexOnly = r.Intn(3) == 0
		req.PLoDLevel = r.Intn(plod.MaxLevel + 1)
		out[i] = diffCase{req: req, ranks: 1 + r.Intn(4)}
	}
	return out
}

// TestDifferentialAgainstOracle runs seeded random requests over every
// store layout three times — uncached, then with a fresh decode cache
// (cold) and again on the same cache (warm) — and checks Query and
// FetchAt against the brute-force oracle and against each other.
func TestDifferentialAgainstOracle(t *testing.T) {
	stores, data, shape := diffStores(t)
	cases := diffCases(12, 40, data, shape)

	// flatAt[i] is the flat store's uncached answer to case i, the
	// reference for the hierarchical store at coarse levels.
	flatAt := make([][]query.Match, len(cases))
	for _, ds := range stores {
		c, err := cache.New(64 << 20)
		if err != nil {
			t.Fatal(err)
		}
		uncached := make([][]query.Match, len(cases))
		for pass, label := range []string{"uncached", "cold", "warm"} {
			if pass == 1 {
				ds.st.SetDecodeCache(c)
			}
			for i, dc := range cases {
				res, err := ds.st.Query(dc.req, dc.ranks)
				coarse := dc.req.PLoDLevel != 0 && dc.req.PLoDLevel != plod.MaxLevel
				if coarse && ds.st.meta.mode == ModeFloats {
					if err == nil {
						t.Fatalf("%s %s case %d: floats store accepted PLoD level %d", ds.name, label, i, dc.req.PLoDLevel)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s %s case %d: %v", ds.name, label, i, err)
				}
				what := ds.name + " " + label
				switch {
				case !coarse:
					matchesEqual(t, res.Matches, bruteForce(data, shape, dc.req), what+" vs oracle")
				case pass > 0:
					matchesEqual(t, res.Matches, uncached[i], what+" vs uncached")
				case ds.name == "flat":
					flatAt[i] = res.Matches
				case ds.name == "hier":
					matchesEqual(t, res.Matches, flatAt[i], what+" vs flat")
				}
				if pass == 0 {
					uncached[i] = res.Matches
				}
				diffCheckFetch(t, ds.st, res.Matches, data, dc.ranks, what)
			}
		}
		ds.st.SetDecodeCache(nil)
	}
}

// diffCheckFetch fetches the variable at an answer's positions and
// requires exactly the stored values there.
func diffCheckFetch(t *testing.T, st *Store, matches []query.Match, data []float64, ranks int, what string) {
	t.Helper()
	positions := bitmap.New(int64(len(data)))
	for _, m := range matches {
		positions.Set(m.Index)
	}
	fres, err := st.FetchAt(positions, ranks)
	if err != nil {
		t.Fatalf("%s fetch: %v", what, err)
	}
	want := make([]query.Match, len(matches))
	for i, m := range matches {
		want[i] = query.Match{Index: m.Index, Value: data[m.Index]}
	}
	matchesEqual(t, fres.Matches, want, what+" fetch")
}
