// Package storage implements the in-memory column store that underpins the
// benchmark: append-only columnar tables with int64 and dictionary-encoded
// string columns, NULL support, and a simple catalog.
//
// The design deliberately mirrors what the paper's main-memory setting
// assumes: all data is RAM resident, tuples are identified by dense row ids,
// and joins operate on integer (surrogate key) columns.
package storage

import "fmt"

// Kind identifies the logical type of a column.
type Kind uint8

const (
	// KindInt is a 64-bit signed integer column (also used for all keys).
	KindInt Kind = iota
	// KindString is a dictionary-encoded string column. Values are stored
	// as int64 codes into the column's dictionary, which makes equality
	// joins and predicate evaluation uniform across both kinds.
	KindString
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Column is an append-only columnar vector. String columns are dictionary
// encoded: Ints holds codes into Dict. NULLs are tracked in an optional
// bitmap; a column without NULLs carries no per-row overhead for them.
type Column struct {
	Name string
	Kind Kind

	// Ints holds the value of every row: the integer itself for KindInt,
	// or a dictionary code for KindString. For NULL rows the entry is 0
	// and must be ignored.
	Ints []int64

	// Dict is the string dictionary for KindString columns (code -> string).
	Dict []string

	// nulls[i] reports whether row i is NULL. nil means "no NULLs".
	nulls []bool

	dictIdx map[string]int64 // builder state: string -> code
}

// NewIntColumn returns an empty integer column.
func NewIntColumn(name string) *Column {
	return &Column{Name: name, Kind: KindInt}
}

// NewStringColumn returns an empty dictionary-encoded string column.
func NewStringColumn(name string) *Column {
	return &Column{
		Name:    name,
		Kind:    KindString,
		dictIdx: make(map[string]int64),
	}
}

// Len returns the number of rows in the column.
func (c *Column) Len() int { return len(c.Ints) }

// AppendInt appends an integer value. The column must be KindInt.
func (c *Column) AppendInt(v int64) {
	if c.Kind != KindInt {
		panic(fmt.Sprintf("storage: AppendInt on %s column %q", c.Kind, c.Name))
	}
	c.Ints = append(c.Ints, v)
	if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
}

// AppendString appends a string value, interning it in the dictionary.
// The column must be KindString.
func (c *Column) AppendString(s string) {
	if c.Kind != KindString {
		panic(fmt.Sprintf("storage: AppendString on %s column %q", c.Kind, c.Name))
	}
	code, ok := c.dictIdx[s]
	if !ok {
		code = int64(len(c.Dict))
		c.Dict = append(c.Dict, s)
		c.dictIdx[s] = code
	}
	c.Ints = append(c.Ints, code)
	if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
}

// AppendNull appends a NULL row.
func (c *Column) AppendNull() {
	if c.nulls == nil {
		c.nulls = make([]bool, len(c.Ints), cap(c.Ints)+1)
	}
	c.Ints = append(c.Ints, 0)
	c.nulls = append(c.nulls, true)
}

// IsNull reports whether row i is NULL.
func (c *Column) IsNull(i int) bool {
	return c.nulls != nil && c.nulls[i]
}

// HasNulls reports whether any row of the column is NULL.
func (c *Column) HasNulls() bool {
	for _, n := range c.nulls {
		if n {
			return true
		}
	}
	return false
}

// Int returns the raw int64 value (or dictionary code) of row i.
// The caller is responsible for checking IsNull first.
func (c *Column) Int(i int) int64 { return c.Ints[i] }

// StringAt returns the string value of row i of a KindString column.
func (c *Column) StringAt(i int) string {
	if c.Kind != KindString {
		panic(fmt.Sprintf("storage: StringAt on %s column %q", c.Kind, c.Name))
	}
	if c.IsNull(i) {
		return ""
	}
	return c.Dict[c.Ints[i]]
}

// Code returns the dictionary code for s, if s occurs in the column.
func (c *Column) Code(s string) (int64, bool) {
	if c.Kind != KindString {
		return 0, false
	}
	code, ok := c.dictIdx[s]
	return code, ok
}

// DictSize returns the number of distinct strings in the dictionary.
func (c *Column) DictSize() int { return len(c.Dict) }

// MinMax returns the minimum and maximum non-NULL value of the column and
// whether any non-NULL value exists.
func (c *Column) MinMax() (lo, hi int64, ok bool) {
	for i, v := range c.Ints {
		if c.IsNull(i) {
			continue
		}
		if !ok {
			lo, hi, ok = v, v, true
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, ok
}

// NullMask exposes the column's NULL bitmap for serialization: nulls[i]
// reports whether row i is NULL, and nil means "no NULLs". The returned
// slice is the column's own storage — callers must not modify it.
func (c *Column) NullMask() []bool { return c.nulls }

// RestoreColumn reconstructs a column from its serialized parts (the
// inverse of reading Ints, Dict and NullMask), rebuilding the dictionary
// index. Unlike the Append builders it validates rather than panics, so a
// decoder can feed it untrusted bytes: the kind must be known, nulls must
// be nil or as long as ints, KindInt columns must carry no dictionary, and
// every non-NULL code of a KindString column must index into dict.
func RestoreColumn(name string, kind Kind, ints []int64, dict []string, nulls []bool) (*Column, error) {
	if kind != KindInt && kind != KindString {
		return nil, fmt.Errorf("storage: column %q has unknown kind %d", name, uint8(kind))
	}
	if nulls != nil && len(nulls) != len(ints) {
		return nil, fmt.Errorf("storage: column %q has %d null flags for %d rows", name, len(nulls), len(ints))
	}
	hasNull := false
	for _, n := range nulls {
		if n {
			hasNull = true
			break
		}
	}
	if !hasNull {
		nulls = nil
	}
	c := &Column{Name: name, Kind: kind, Ints: ints, nulls: nulls}
	switch kind {
	case KindInt:
		if len(dict) != 0 {
			return nil, fmt.Errorf("storage: int column %q carries a %d-entry dictionary", name, len(dict))
		}
	case KindString:
		c.Dict = dict
		c.dictIdx = make(map[string]int64, len(dict))
		for code, s := range dict {
			c.dictIdx[s] = int64(code)
		}
		for i, v := range ints {
			if c.IsNull(i) {
				continue
			}
			if v < 0 || v >= int64(len(dict)) {
				return nil, fmt.Errorf("storage: column %q row %d has dictionary code %d outside [0,%d)", name, i, v, len(dict))
			}
		}
	}
	return c, nil
}
