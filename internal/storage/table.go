package storage

import (
	"fmt"
	"sort"
)

// Table is a named collection of equal-length columns.
type Table struct {
	Name string
	Cols []*Column

	byName map[string]int
}

// NewTable creates a table with the given columns. Column names must be
// unique within the table.
func NewTable(name string, cols ...*Column) *Table {
	t := &Table{Name: name, Cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := t.byName[c.Name]; dup {
			panic(fmt.Sprintf("storage: duplicate column %q in table %q", c.Name, name))
		}
		t.byName[c.Name] = i
	}
	return t
}

// NumRows returns the number of rows. All columns must have equal length;
// Check verifies this.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// Column returns the column with the given name, or nil if absent.
func (t *Table) Column(name string) *Column {
	i, ok := t.byName[name]
	if !ok {
		return nil
	}
	return t.Cols[i]
}

// MustColumn returns the named column or panics. It is used by internal
// machinery after schema validation has already happened.
func (t *Table) MustColumn(name string) *Column {
	c := t.Column(name)
	if c == nil {
		panic(fmt.Sprintf("storage: table %q has no column %q", t.Name, name))
	}
	return c
}

// TupleWidth returns a rough per-tuple width in bytes, used by the
// disk-oriented cost model to translate rows into pages.
func (t *Table) TupleWidth() int {
	// 8 bytes per attribute is the natural width of our storage format.
	w := 8 * len(t.Cols)
	if w == 0 {
		w = 8
	}
	return w
}

// Check validates structural invariants: equal column lengths and
// resolvable names. It returns an error describing the first violation.
func (t *Table) Check() error {
	n := t.NumRows()
	for _, c := range t.Cols {
		if c.Len() != n {
			return fmt.Errorf("table %q: column %q has %d rows, want %d", t.Name, c.Name, c.Len(), n)
		}
	}
	return nil
}

// Database is a catalog of tables.
type Database struct {
	tables map[string]*Table
	order  []string
}

// NewDatabase returns an empty catalog.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// Add registers a table. Adding a duplicate name panics: schemas are static
// in this system and a duplicate is always a programming error.
func (d *Database) Add(t *Table) {
	if _, dup := d.tables[t.Name]; dup {
		panic(fmt.Sprintf("storage: duplicate table %q", t.Name))
	}
	d.tables[t.Name] = t
	d.order = append(d.order, t.Name)
}

// Table returns the named table, or nil if absent.
func (d *Database) Table(name string) *Table { return d.tables[name] }

// MustTable returns the named table or panics.
func (d *Database) MustTable(name string) *Table {
	t := d.Table(name)
	if t == nil {
		panic(fmt.Sprintf("storage: no table %q", name))
	}
	return t
}

// TableNames returns all table names in registration order.
func (d *Database) TableNames() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// Check validates every table in the catalog.
func (d *Database) Check() error {
	names := d.TableNames()
	sort.Strings(names)
	for _, name := range names {
		if err := d.tables[name].Check(); err != nil {
			return err
		}
	}
	return nil
}
