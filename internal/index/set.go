package index

import (
	"fmt"
	"sort"

	"jobench/internal/storage"
)

// Set is a registry of indexes keyed by (table, column). It doubles as the
// optimizer's physical-design oracle: a join side can use an index-nested-
// loop join only if Has(table, column) is true, which is how the paper's
// three index configurations (none / PK / PK+FK) are expressed.
type Set struct {
	m map[setKey]*Hash
}

type setKey struct{ table, column string }

// NewSet returns an empty index set (the "no indexes" configuration).
func NewSet() *Set { return &Set{m: make(map[setKey]*Hash)} }

// Add registers an index for (table, column), replacing any previous one.
func (s *Set) Add(table, column string, idx *Hash) {
	s.m[setKey{table, column}] = idx
}

// Get returns the index on (table, column), or nil.
func (s *Set) Get(table, column string) *Hash {
	return s.m[setKey{table, column}]
}

// Has reports whether an index exists on (table, column). It implements the
// optimizer's IndexChecker interface.
func (s *Set) Has(table, column string) bool {
	_, ok := s.m[setKey{table, column}]
	return ok
}

// Size returns the number of registered indexes.
func (s *Set) Size() int { return len(s.m) }

// Item is one registered index with its (table, column) key.
type Item struct {
	Table  string
	Column string
	Index  *Hash
}

// Items returns the registered indexes sorted by (table, column), the
// deterministic iteration order the snapshot store serializes in.
func (s *Set) Items() []Item {
	out := make([]Item, 0, len(s.m))
	for k, idx := range s.m {
		out = append(out, Item{Table: k.table, Column: k.column, Index: idx})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// Describe returns a sorted human-readable list of indexed columns.
func (s *Set) Describe() []string {
	out := make([]string, 0, len(s.m))
	for k, idx := range s.m {
		kind := "non-unique"
		if idx.Unique() {
			kind = "unique"
		}
		out = append(out, fmt.Sprintf("%s.%s (%s, %d entries)", k.table, k.column, kind, idx.Len()))
	}
	sort.Strings(out)
	return out
}

// BuildHashOn builds and registers a hash index on table.column of db.
func (s *Set) BuildHashOn(db *storage.Database, table, column string, unique bool) error {
	t := db.Table(table)
	if t == nil {
		return fmt.Errorf("index: no table %q", table)
	}
	col := t.Column(column)
	if col == nil {
		return fmt.Errorf("index: no column %q.%q", table, column)
	}
	idx, err := BuildHash(col, unique)
	if err != nil {
		return err
	}
	s.Add(table, column, idx)
	return nil
}
