package hashtab

// Postings is a read-only multimap from int64 keys to []int32 value lists,
// the flat replacement for map[int64][]int32: all values live in one
// contiguous arena grouped by key, with per-group offsets, and keys resolve
// to groups through a flat chained hash — or, when the key domain is dense
// (surrogate keys almost always are), through a direct offset table with no
// hashing at all. Building performs no per-key slice growth — group sizes
// are counted first, then every value is placed exactly once — so a build
// is two passes over the input and a constant number of allocations
// regardless of key skew.
//
// Per-key value order is input order, exactly as successive appends to a
// map's slices would have produced, and group numbering is first-seen
// order in both resolution modes.
type Postings struct {
	// Sparse resolution: flat chained hash over group keys.
	heads []int32 // group hash buckets; -1 = empty
	gnext []int32 // group collision chains
	mask  uint64

	// Dense resolution: key-min indexes straight into a group table.
	dense []int32 // key - min -> group+1; 0 = no group
	min   int64

	gkeys []int64 // key of each group, first-seen order
	offs  []int32 // per group: start of its values in vals; len = groups+1
	vals  []int32 // all values, grouped, input order within a group
}

// denseFactor is the maximum key-range-to-key-count ratio for the dense
// offset table: up to this sparsity the table costs at most denseFactor
// int32s per input key, cheaper than hashing every probe.
const denseFactor = 4

// denseMax caps the offset table outright, whatever the ratio promises.
const denseMax = 1 << 27

// BuildPostings groups vals by their parallel keys. Both slices must have
// equal length; the result references neither.
func BuildPostings(keys []int64, vals []int32) *Postings {
	n := len(keys)
	p := &Postings{}

	var counts []int32
	gids := make([]int32, n)

	if n > 0 {
		lo, hi := keys[0], keys[0]
		for _, k := range keys {
			if k < lo {
				lo = k
			}
			if k > hi {
				hi = k
			}
		}
		// hi >= lo, so the uint64 span never wraps — but span+1 would when
		// the keys cover the whole int64 range, so compare the span itself
		// and only then size the table at span+1.
		if span := uint64(hi) - uint64(lo); span < uint64(max(denseFactor*n, 16)) && span < denseMax {
			p.min = lo
			p.dense = make([]int32, span+1)
			for i, k := range keys {
				slot := k - p.min
				g := p.dense[slot] - 1
				if g < 0 {
					g = int32(len(p.gkeys))
					p.gkeys = append(p.gkeys, k)
					p.dense[slot] = g + 1
					counts = append(counts, 0)
				}
				gids[i] = g
				counts[g]++
			}
		}
	}
	if p.dense == nil {
		// Sparse path: assign each input to a group through the flat hash,
		// creating groups in first-seen order, and count group sizes.
		nb := NextPow2(uint64(n))
		if nb > MaxBuckets {
			nb = MaxBuckets
		}
		p.heads = make([]int32, nb)
		p.mask = nb - 1
		for i := range p.heads {
			p.heads[i] = -1
		}
		for i, k := range keys {
			b := Hash64(k) & p.mask
			g := int32(-1)
			for j := p.heads[b]; j >= 0; j = p.gnext[j] {
				if p.gkeys[j] == k {
					g = j
					break
				}
			}
			if g < 0 {
				g = int32(len(p.gkeys))
				p.gkeys = append(p.gkeys, k)
				p.gnext = append(p.gnext, p.heads[b])
				p.heads[b] = g
				counts = append(counts, 0)
			}
			gids[i] = g
			counts[g]++
		}
	}

	// Prefix sums give each group its slot range; pass 2 places values.
	p.offs = make([]int32, len(counts)+1)
	for g, c := range counts {
		p.offs[g+1] = p.offs[g] + c
	}
	p.vals = make([]int32, n)
	cursor := make([]int32, len(counts))
	copy(cursor, p.offs[:len(counts)])
	for i, g := range gids {
		p.vals[cursor[g]] = vals[i]
		cursor[g]++
	}
	return p
}

// Lookup returns the values stored under key, in input order. The returned
// slice aliases the arena and must not be modified. Probe loops resolve
// dense keys through DenseView instead, which inlines.
func (p *Postings) Lookup(key int64) []int32 {
	if v, ok := p.DenseView(); ok {
		return v.Lookup(key)
	}
	if p.heads == nil {
		return nil
	}
	for j := p.heads[Hash64(key)&p.mask]; j >= 0; j = p.gnext[j] {
		if p.gkeys[j] == key {
			return p.vals[p.offs[j]:p.offs[j+1]]
		}
	}
	return nil
}

// DenseView exposes the dense resolution arrays so that probe loops hot
// enough to care resolve a key inline: the combined Postings.Lookup exceeds
// the compiler's inlining budget, DenseView.Lookup does not. Its two users
// are truecard's join probe and the engine's index-nested-loop join, both
// of which call it once per probe tuple. ok reports whether this Postings
// resolves densely; when false, use Postings.Lookup.
type DenseView struct {
	Dense []int32 // key - Min -> group+1; 0 = no group
	Min   int64
	Offs  []int32
	Vals  []int32
}

// DenseView returns the dense arrays, or ok=false for sparse postings.
// The slices alias the arena and must not be modified.
func (p *Postings) DenseView() (DenseView, bool) {
	if p.dense == nil {
		return DenseView{}, false
	}
	return DenseView{Dense: p.dense, Min: p.min, Offs: p.offs, Vals: p.vals}, true
}

// Lookup returns the values stored under key, exactly as Postings.Lookup
// does on the Postings the view came from.
func (v *DenseView) Lookup(key int64) []int32 {
	if slot := uint64(key) - uint64(v.Min); slot < uint64(len(v.Dense)) {
		if g := v.Dense[slot]; g != 0 {
			return v.Vals[v.Offs[g-1]:v.Offs[g]]
		}
	}
	return nil
}

// Keys returns the number of distinct keys.
func (p *Postings) Keys() int { return len(p.gkeys) }

// Group returns the g-th key (groups are numbered in first-seen order) and
// its values. The values alias the arena and must not be modified.
func (p *Postings) Group(g int) (int64, []int32) {
	return p.gkeys[g], p.vals[p.offs[g]:p.offs[g+1]]
}

// Len returns the total number of values.
func (p *Postings) Len() int { return len(p.vals) }
