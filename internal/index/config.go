package index

import (
	"fmt"
	"strings"
)

// Config selects one of the paper's three physical designs (§4, §6.1).
// It lives in the index package so every workload (IMDB, TPC-H, ...) can
// share the same configuration vocabulary without importing each other.
type Config int

const (
	// NoIndexes has no indexes at all.
	NoIndexes Config = iota
	// PKOnly indexes the primary key (id) of every table.
	PKOnly
	// PKFK additionally indexes every foreign-key column.
	PKFK
)

// Designs lists the three physical designs in the order the facade builds
// them. Every workload supports all three.
func Designs() []Config { return []Config{NoIndexes, PKOnly, PKFK} }

// Labels joins every design's Label with "|": the vocabulary of the CLI's
// -idx flag and the service's "indexes" field.
func Labels() string {
	labels := make([]string, 0, 3)
	for _, c := range Designs() {
		labels = append(labels, c.Label())
	}
	return strings.Join(labels, "|")
}

// Label returns the short filename-safe name of the configuration, used by
// the snapshot store and the CLI/service flag surface.
func (c Config) Label() string {
	switch c {
	case NoIndexes:
		return "none"
	case PKOnly:
		return "pk"
	case PKFK:
		return "pkfk"
	default:
		return fmt.Sprintf("cfg%d", int(c))
	}
}

// String renders the configuration the way the reports caption it.
func (c Config) String() string {
	switch c {
	case NoIndexes:
		return "no indexes"
	case PKOnly:
		return "PK indexes"
	case PKFK:
		return "PK + FK indexes"
	default:
		return fmt.Sprintf("Config(%d)", int(c))
	}
}
