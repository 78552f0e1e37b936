package core

// Failure-injection tests: corrupted or missing store files must
// surface as errors, never as wrong answers or panics.

import (
	"encoding/binary"
	"strings"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// corruptStore builds a small store and returns it with its PFS for
// tampering.
func corruptStore(t *testing.T) (*Store, *pfs.Sim) {
	t.Helper()
	d := datagen.GTSLike(32, 32, 3)
	v, _ := d.Var("phi")
	fs := pfs.New(pfs.DefaultConfig())
	cfg := DefaultConfig([]int{8, 8})
	cfg.NumBins = 6
	cfg.SampleSize = 256
	st, err := Build(fs, fs.NewClock(), "fi/phi", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, fs
}

func anyQuery(t *testing.T, st *Store) error {
	t.Helper()
	vc := binning.ValueConstraint{Min: -1e18, Max: 1e18}
	_, err := st.Query(&query.Request{VC: &vc}, 2)
	return err
}

// A vindex node whose bitmap length disagrees with the grid must fail
// the query: iterating its bits would silently drop matches.
func TestCorruptVindexNodeLengthErrors(t *testing.T) {
	d := datagen.GTSLike(64, 64, 1)
	v, _ := d.Var("phi")
	fs := pfs.New(pfs.DefaultConfig())
	cfg := DefaultConfig([]int{16, 16})
	cfg.NumBins = 16
	cfg.HierarchicalIndex = true
	st, err := Build(fs, fs.NewClock(), "fi/hier", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := pfs.NewClock()
	raw, err := fs.ReadFile(clk, st.vidx.path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite every node's 8-byte bit length to half the grid.
	buf := append([]byte(nil), raw...)
	for _, off := range st.vidx.offs {
		binary.LittleEndian.PutUint64(buf[off:], uint64(d.Shape.Elems()/2))
	}
	if err := fs.WriteFile(clk, st.vidx.path, buf); err != nil {
		t.Fatal(err)
	}
	vc := binning.ValueConstraint{Min: -1e30, Max: 1e30}
	res, err := st.Query(&query.Request{VC: &vc, IndexOnly: true}, 2)
	if err == nil {
		t.Fatalf("query over corrupt vindex nodes returned %d of %d matches and no error",
			len(res.Matches), d.Shape.Elems())
	}
	if !strings.HasPrefix(err.Error(), "core:") {
		t.Errorf("error %q lacks the core: prefix", err)
	}
}

func TestMissingDataFileErrors(t *testing.T) {
	st, fs := corruptStore(t)
	if err := fs.Delete("fi/phi/bin0002/data"); err != nil {
		t.Fatal(err)
	}
	if err := anyQuery(t, st); err == nil {
		t.Fatal("query succeeded with a deleted bin data file")
	}
}

func TestMissingIndexFileErrors(t *testing.T) {
	st, fs := corruptStore(t)
	if err := fs.Delete("fi/phi/bin0001/index"); err != nil {
		t.Fatal(err)
	}
	if err := anyQuery(t, st); err == nil {
		t.Fatal("query succeeded with a deleted bin index file")
	}
}

func TestTruncatedDataFileErrors(t *testing.T) {
	st, fs := corruptStore(t)
	clk := pfs.NewClock()
	raw, err := fs.ReadFile(clk, "fi/phi/bin0000/data")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(clk, "fi/phi/bin0000/data", raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	if err := anyQuery(t, st); err == nil {
		t.Fatal("query succeeded on a truncated data file")
	}
}

func TestCorruptedCompressedPlaneErrors(t *testing.T) {
	st, fs := corruptStore(t)
	clk := pfs.NewClock()
	raw, err := fs.ReadFile(clk, "fi/phi/bin0000/data")
	if err != nil {
		t.Fatal(err)
	}
	// Flip bytes near the start, where the compressed plane-0 pieces
	// live in V-M-S layout.
	mangled := append([]byte(nil), raw...)
	for i := 0; i < len(mangled) && i < 64; i++ {
		mangled[i] ^= 0xA5
	}
	if err := fs.WriteFile(clk, "fi/phi/bin0000/data", mangled); err != nil {
		t.Fatal(err)
	}
	if err := anyQuery(t, st); err == nil {
		t.Fatal("query succeeded on corrupted compressed data")
	}
}

func TestCorruptedIndexStreamErrors(t *testing.T) {
	st, fs := corruptStore(t)
	clk := pfs.NewClock()
	raw, err := fs.ReadFile(clk, "fi/phi/bin0000/index")
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite with continuation-bit garbage so uvarints run past the
	// unit's boundary.
	mangled := append([]byte(nil), raw...)
	for i := range mangled {
		mangled[i] = 0xFF
	}
	if err := fs.WriteFile(clk, "fi/phi/bin0000/index", mangled); err != nil {
		t.Fatal(err)
	}
	if err := anyQuery(t, st); err == nil {
		t.Fatal("query succeeded on corrupted index stream")
	}
}

func TestCorruptedMetaErrors(t *testing.T) {
	_, fs := corruptStore(t)
	clk := pfs.NewClock()
	raw, err := fs.ReadFile(clk, "fi/phi/meta")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     raw[:3],
		"bad-magic": append([]byte{0, 0, 0, 0}, raw[4:]...),
		"truncated": raw[:len(raw)-5],
	}
	for name, data := range cases {
		if err := fs.WriteFile(clk, "fi/phi/meta", data); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(fs, pfs.NewClock(), "fi/phi"); err == nil {
			t.Errorf("%s: Open succeeded on corrupted meta", name)
		}
	}
}

func TestErrorsCarryContext(t *testing.T) {
	st, fs := corruptStore(t)
	if err := fs.Delete("fi/phi/bin0000/data"); err != nil {
		t.Fatal(err)
	}
	err := anyQuery(t, st)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "bin0000") {
		t.Errorf("error %q does not name the failing file", err)
	}
}

func TestQueryAfterOtherBinCorruptionStillWorksWhenUntouched(t *testing.T) {
	// Corruption in bin 5 must not affect queries that never select it.
	st, fs := corruptStore(t)
	if err := fs.Delete("fi/phi/bin0005/data"); err != nil {
		t.Fatal(err)
	}
	bounds := st.Scheme().Bounds()
	// A VC entirely inside bin 0.
	vc := binning.ValueConstraint{Min: bounds[0], Max: (bounds[0] + bounds[1]) / 2}
	res, err := st.Query(&query.Request{VC: &vc}, 2)
	if err != nil {
		t.Fatalf("query on healthy bin failed: %v", err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("expected matches in bin 0")
	}
	// And an SC-only probe that avoids bin 5 entirely is impossible to
	// guarantee, so no assertion there — the point is isolation above.
	_ = grid.Shape{}
}
