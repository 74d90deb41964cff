package imdb

import (
	"math"
	"testing"

	"jobench/internal/storage"
)

// tableNames lists the 21 tables of the schema.
var tableNames = []string{
	"kind_type", "info_type", "company_type", "role_type", "link_type",
	"comp_cast_type", "title", "company_name", "keyword", "name",
	"char_name", "movie_companies", "movie_info", "movie_info_idx",
	"movie_keyword", "cast_info", "aka_name", "aka_title", "movie_link",
	"person_info", "complete_cast",
}

func small() *storage.Database {
	return Generate(Config{Scale: 0.05, Seed: 7})
}

func TestAllTablesPresent(t *testing.T) {
	db := small()
	for _, name := range tableNames {
		tbl := db.Table(name)
		if tbl == nil {
			t.Fatalf("missing table %q", name)
		}
		if tbl.NumRows() == 0 {
			t.Errorf("table %q is empty", name)
		}
	}
	if len(tableNames) != 21 {
		t.Fatalf("schema has %d tables, want 21", len(tableNames))
	}
	if err := db.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{Scale: 0.05, Seed: 9})
	b := Generate(Config{Scale: 0.05, Seed: 9})
	for _, name := range tableNames {
		ta, tb := a.Table(name), b.Table(name)
		if ta.NumRows() != tb.NumRows() {
			t.Fatalf("%s: %d vs %d rows", name, ta.NumRows(), tb.NumRows())
		}
		for ci, ca := range ta.Cols {
			cb := tb.Cols[ci]
			for i := 0; i < ta.NumRows(); i++ {
				if ca.IsNull(i) != cb.IsNull(i) {
					t.Fatalf("%s.%s row %d: null mismatch", name, ca.Name, i)
				}
				if !ca.IsNull(i) && ca.Ints[i] != cb.Ints[i] {
					t.Fatalf("%s.%s row %d: %d vs %d", name, ca.Name, i, ca.Ints[i], cb.Ints[i])
				}
			}
		}
	}
	c := Generate(Config{Scale: 0.05, Seed: 10})
	if c.Table("cast_info").NumRows() == a.Table("cast_info").NumRows() &&
		c.Table("movie_info").NumRows() == a.Table("movie_info").NumRows() {
		t.Error("different seeds produced identical fanouts; generator ignores seed?")
	}
}

func TestForeignKeyIntegrity(t *testing.T) {
	db := small()
	for _, fk := range ForeignKeys() {
		child := db.MustTable(fk.Table).MustColumn(fk.Column)
		parent := db.MustTable(fk.RefTable).MustColumn(fk.RefColumn)
		valid := make(map[int64]bool, parent.Len())
		for i, v := range parent.Ints {
			if !parent.IsNull(i) {
				valid[v] = true
			}
		}
		for i, v := range child.Ints {
			if child.IsNull(i) {
				if !fk.Nullable {
					t.Errorf("%s.%s row %d: NULL in non-nullable FK", fk.Table, fk.Column, i)
				}
				continue
			}
			if !valid[v] {
				t.Fatalf("%s.%s row %d: dangling reference %d -> %s", fk.Table, fk.Column, i, v, fk.RefTable)
			}
		}
	}
}

func TestPrimaryKeysDense(t *testing.T) {
	db := small()
	for _, name := range tableNames {
		id := db.MustTable(name).MustColumn("id")
		for i := 0; i < id.Len(); i++ {
			if id.Ints[i] != int64(i+1) {
				t.Fatalf("%s: id at row %d is %d, want %d", name, i, id.Ints[i], i+1)
			}
		}
	}
}

func TestScalePreservesRatios(t *testing.T) {
	db := Generate(Config{Scale: 0.5, Seed: 42})
	title := float64(db.Table("title").NumRows())
	ratios := map[string][2]float64{
		"cast_info":       {4, 16},
		"movie_info":      {4, 14},
		"movie_keyword":   {0.8, 3.5},
		"movie_companies": {0.8, 3},
		"movie_info_idx":  {0.1, 1},
		"name":            {0.9, 1.1},
	}
	for name, bounds := range ratios {
		r := float64(db.Table(name).NumRows()) / title
		if r < bounds[0] || r > bounds[1] {
			t.Errorf("%s/title ratio = %.2f, want in [%g,%g]", name, r, bounds[0], bounds[1])
		}
	}
}

// TestFanoutSkew verifies the heavy-tailed fan-outs that break the uniform
// fan-out assumption: the busiest movie must have far more cast rows than
// the average movie.
func TestFanoutSkew(t *testing.T) {
	db := Generate(Config{Scale: 0.3, Seed: 42})
	ci := db.MustTable("cast_info").MustColumn("movie_id")
	counts := make(map[int64]int)
	for _, v := range ci.Ints {
		counts[v]++
	}
	maxC, sum := 0, 0
	for _, c := range counts {
		sum += c
		if c > maxC {
			maxC = c
		}
	}
	avg := float64(sum) / float64(db.Table("title").NumRows())
	if float64(maxC) < 6*avg {
		t.Errorf("cast fanout max %d vs avg %.1f: not skewed enough", maxC, avg)
	}
}

// TestCorrelatedFanouts verifies the core correlation: titles with many cast
// rows also have many info rows (driven by the shared popularity latent).
// Independence-based estimators cannot see this, which is what produces the
// paper's systematic underestimation.
func TestCorrelatedFanouts(t *testing.T) {
	db := Generate(Config{Scale: 0.3, Seed: 42})
	n := db.Table("title").NumRows()
	cast := make([]float64, n+1)
	info := make([]float64, n+1)
	for _, v := range db.MustTable("cast_info").MustColumn("movie_id").Ints {
		cast[v]++
	}
	for _, v := range db.MustTable("movie_info").MustColumn("movie_id").Ints {
		info[v]++
	}
	// Pearson correlation between the two fanout vectors.
	var sx, sy, sxx, syy, sxy float64
	for i := 1; i <= n; i++ {
		sx += cast[i]
		sy += info[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	for i := 1; i <= n; i++ {
		dx, dy := cast[i]-mx, info[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	r := sxy / math.Sqrt(sxx*syy)
	if r < 0.35 {
		t.Errorf("cast/info fanout correlation = %.2f, want strong positive", r)
	}
}

// TestJoinCrossingCorrelation verifies the §4.4-style correlation: German
// companies produce German-language movies far more often than independence
// would predict.
func TestJoinCrossingCorrelation(t *testing.T) {
	db := Generate(Config{Scale: 0.5, Seed: 42})
	// Movies with a [de] company.
	cn := db.MustTable("company_name")
	code := cn.MustColumn("country_code")
	deCompanies := make(map[int64]bool)
	for i := 0; i < cn.NumRows(); i++ {
		if !code.IsNull(i) && code.StringAt(i) == "[de]" {
			deCompanies[cn.MustColumn("id").Ints[i]] = true
		}
	}
	mc := db.MustTable("movie_companies")
	deMovies := make(map[int64]bool)
	allMovies := make(map[int64]bool)
	for i := 0; i < mc.NumRows(); i++ {
		mid := mc.MustColumn("movie_id").Ints[i]
		allMovies[mid] = true
		if deCompanies[mc.MustColumn("company_id").Ints[i]] {
			deMovies[mid] = true
		}
	}
	// Movies with a 'German' language row.
	mi := db.MustTable("movie_info")
	infoCol := mi.MustColumn("info")
	germanMovies := make(map[int64]bool)
	for i := 0; i < mi.NumRows(); i++ {
		if !infoCol.IsNull(i) && infoCol.StringAt(i) == "German" {
			germanMovies[mi.MustColumn("movie_id").Ints[i]] = true
		}
	}
	// P(german | de-company) must far exceed P(german | any company).
	both, base := 0, 0
	for m := range deMovies {
		if germanMovies[m] {
			both++
		}
	}
	for m := range allMovies {
		if germanMovies[m] {
			base++
		}
	}
	pCond := float64(both) / float64(len(deMovies))
	pBase := float64(base) / float64(len(allMovies))
	if pCond < 3*pBase {
		t.Errorf("P(German|de company)=%.3f vs P(German)=%.3f: correlation too weak", pCond, pBase)
	}
}

func TestRatingCorrelatesWithRank(t *testing.T) {
	// top 250 rank rows must belong to rated movies (info_num correlation).
	db := small()
	mi := db.MustTable("movie_info_idx")
	typeCol := mi.MustColumn("info_type_id")
	movieCol := mi.MustColumn("movie_id")
	rated := make(map[int64]bool)
	var tops []int64
	for i := 0; i < mi.NumRows(); i++ {
		switch typeCol.Ints[i] {
		case 3: // rating
			rated[movieCol.Ints[i]] = true
		case 1: // top 250 rank
			tops = append(tops, movieCol.Ints[i])
		}
	}
	if len(tops) == 0 {
		t.Fatal("no top 250 rows generated")
	}
	for _, m := range tops {
		if !rated[m] {
			t.Fatalf("movie %d has top-250 rank but no rating", m)
		}
	}
}
