// Package imdb builds a synthetic, deterministically generated instance of
// the 21-table IMDB schema used by the Join Order Benchmark. The real IMDB
// dump is not redistributable; what matters for the paper's experiments is
// that the data is *skewed* and *correlated*, within tables and across
// joins. The generator plants those properties deliberately (see gen.go),
// at a configurable scale.
package imdb

// FK describes one foreign-key relationship of the schema.
type FK struct {
	Table    string
	Column   string
	RefTable string
	// RefColumn is always "id" in this star-shaped schema.
	RefColumn string
	// Nullable FKs (e.g. cast_info.person_role_id) may contain NULLs,
	// which join predicates never match.
	Nullable bool
}

// ForeignKeys returns every FK of the schema. It drives both the PK+FK
// index configuration (internal/workload) and the generator's integrity
// tests.
func ForeignKeys() []FK {
	return []FK{
		{"title", "kind_id", "kind_type", "id", false},
		{"movie_companies", "movie_id", "title", "id", false},
		{"movie_companies", "company_id", "company_name", "id", false},
		{"movie_companies", "company_type_id", "company_type", "id", false},
		{"movie_info", "movie_id", "title", "id", false},
		{"movie_info", "info_type_id", "info_type", "id", false},
		{"movie_info_idx", "movie_id", "title", "id", false},
		{"movie_info_idx", "info_type_id", "info_type", "id", false},
		{"movie_keyword", "movie_id", "title", "id", false},
		{"movie_keyword", "keyword_id", "keyword", "id", false},
		{"cast_info", "movie_id", "title", "id", false},
		{"cast_info", "person_id", "name", "id", false},
		{"cast_info", "person_role_id", "char_name", "id", true},
		{"cast_info", "role_id", "role_type", "id", false},
		{"aka_name", "person_id", "name", "id", false},
		{"aka_title", "movie_id", "title", "id", false},
		{"movie_link", "movie_id", "title", "id", false},
		{"movie_link", "linked_movie_id", "title", "id", false},
		{"movie_link", "link_type_id", "link_type", "id", false},
		{"person_info", "person_id", "name", "id", false},
		{"person_info", "info_type_id", "info_type", "id", false},
		{"complete_cast", "movie_id", "title", "id", false},
		{"complete_cast", "subject_id", "comp_cast_type", "id", false},
		{"complete_cast", "status_id", "comp_cast_type", "id", false},
	}
}
