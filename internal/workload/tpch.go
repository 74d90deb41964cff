package workload

// The mini TPC-H world: a generator and JOB-style SPJ renderings of ten
// TPC-H query families. Its original purpose in the paper is Figure 4:
// TPC-H data is generated under exactly the uniformity and independence
// assumptions that cardinality estimators make, so estimates are nearly
// perfect on it — unlike on the correlated IMDB data. The generator
// therefore deliberately draws every attribute independently and uniformly
// (within the value distributions of the TPC-H specification). Scale 1.0 is
// a 1/100 TPC-H SF1: 15,000 orders, 60,000 lineitems.

import (
	"fmt"
	"math/rand"

	"jobench/internal/query"
	"jobench/internal/storage"
)

var regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

var nations = []struct {
	name   string
	region int
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3}, {"UNITED KINGDOM", 3},
	{"UNITED STATES", 1},
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}

var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

var typeSyllable1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
var typeSyllable2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
var typeSyllable3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}

// tpchGenerate builds the 7-table mini TPC-H database from a normalized
// config.
func tpchGenerate(cfg Config) *storage.Database {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nOrders := int(15000 * cfg.Scale)
	if nOrders < 500 {
		nOrders = 500
	}
	nCustomer := nOrders / 10
	nSupplier := max(20, nOrders/150)
	nPart := max(100, nOrders/8)

	db := storage.NewDatabase()

	// region
	{
		id := storage.NewIntColumn("id")
		name := storage.NewStringColumn("name")
		for i, r := range regions {
			id.AppendInt(int64(i + 1))
			name.AppendString(r)
		}
		db.Add(storage.NewTable("region", id, name))
	}
	// nation
	{
		id := storage.NewIntColumn("id")
		name := storage.NewStringColumn("name")
		region := storage.NewIntColumn("region_id")
		for i, n := range nations {
			id.AppendInt(int64(i + 1))
			name.AppendString(n.name)
			region.AppendInt(int64(n.region + 1))
		}
		db.Add(storage.NewTable("nation", id, name, region))
	}
	// supplier: nation uniform.
	{
		id := storage.NewIntColumn("id")
		name := storage.NewStringColumn("name")
		nation := storage.NewIntColumn("nation_id")
		for i := 0; i < nSupplier; i++ {
			id.AppendInt(int64(i + 1))
			name.AppendString(fmt.Sprintf("Supplier#%09d", i+1))
			nation.AppendInt(int64(1 + rng.Intn(len(nations))))
		}
		db.Add(storage.NewTable("supplier", id, name, nation))
	}
	// customer: nation and segment uniform, independent.
	{
		id := storage.NewIntColumn("id")
		name := storage.NewStringColumn("name")
		nation := storage.NewIntColumn("nation_id")
		seg := storage.NewStringColumn("mktsegment")
		for i := 0; i < nCustomer; i++ {
			id.AppendInt(int64(i + 1))
			name.AppendString(fmt.Sprintf("Customer#%09d", i+1))
			nation.AppendInt(int64(1 + rng.Intn(len(nations))))
			seg.AppendString(segments[rng.Intn(len(segments))])
		}
		db.Add(storage.NewTable("customer", id, name, nation, seg))
	}
	// part: type/brand/size uniform.
	{
		id := storage.NewIntColumn("id")
		ptype := storage.NewStringColumn("type")
		brand := storage.NewStringColumn("brand")
		size := storage.NewIntColumn("size")
		for i := 0; i < nPart; i++ {
			id.AppendInt(int64(i + 1))
			ptype.AppendString(typeSyllable1[rng.Intn(6)] + " " + typeSyllable2[rng.Intn(5)] + " " + typeSyllable3[rng.Intn(5)])
			brand.AppendString(fmt.Sprintf("Brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5)))
			size.AppendInt(int64(1 + rng.Intn(50)))
		}
		db.Add(storage.NewTable("part", id, ptype, brand, size))
	}
	// orders: customer uniform, dates uniform over 7 years (2556 days).
	{
		id := storage.NewIntColumn("id")
		cust := storage.NewIntColumn("customer_id")
		date := storage.NewIntColumn("orderdate")
		prio := storage.NewStringColumn("orderpriority")
		for i := 0; i < nOrders; i++ {
			id.AppendInt(int64(i + 1))
			cust.AppendInt(int64(1 + rng.Intn(nCustomer)))
			date.AppendInt(int64(rng.Intn(2556)))
			prio.AppendString(priorities[rng.Intn(len(priorities))])
		}
		db.Add(storage.NewTable("orders", id, cust, date, prio))
	}
	// lineitem: 1-7 per order (uniform), everything independent.
	{
		id := storage.NewIntColumn("id")
		order := storage.NewIntColumn("order_id")
		part := storage.NewIntColumn("part_id")
		supp := storage.NewIntColumn("supplier_id")
		qty := storage.NewIntColumn("quantity")
		disc := storage.NewIntColumn("discount")
		ship := storage.NewIntColumn("shipdate")
		ret := storage.NewStringColumn("returnflag")
		row := int64(1)
		orderDates := db.MustTable("orders").MustColumn("orderdate")
		for o := 0; o < nOrders; o++ {
			nl := 1 + rng.Intn(7)
			for k := 0; k < nl; k++ {
				id.AppendInt(row)
				order.AppendInt(int64(o + 1))
				part.AppendInt(int64(1 + rng.Intn(nPart)))
				supp.AppendInt(int64(1 + rng.Intn(nSupplier)))
				qty.AppendInt(int64(1 + rng.Intn(50)))
				disc.AppendInt(int64(rng.Intn(11)))
				ship.AppendInt(orderDates.Ints[o] + int64(1+rng.Intn(120)))
				// Spec: returned for "old" lineitems, else A/N; we keep the
				// ~25/25/50 split but draw it independently of the date so
				// the independence assumption holds by construction.
				r := rng.Float64()
				switch {
				case r < 0.25:
					ret.AppendString("R")
				case r < 0.5:
					ret.AppendString("A")
				default:
					ret.AppendString("N")
				}
				row++
			}
		}
		db.Add(storage.NewTable("lineitem", id, order, part, supp, qty, disc, ship, ret))
	}
	return db
}

// tpchFKs are the foreign-key columns of the mini schema, which the PK+FK
// design indexes.
var tpchFKs = []column{
	{"nation", "region_id"},
	{"supplier", "nation_id"},
	{"customer", "nation_id"},
	{"orders", "customer_id"},
	{"lineitem", "order_id"},
	{"lineitem", "part_id"},
	{"lineitem", "supplier_id"},
}

// tpchQueries returns SPJ renderings of ten TPC-H query families over the
// mini schema (aggregations dropped, like the JOB queries), in family
// order. The three figure-4 families (Q5, Q8, Q10) are byte-identical to
// the original appendix versions.
func tpchQueries() []*query.Query {
	return []*query.Query{q3(), q4(), q5(), q7(), q8(), q9(), q10(), q12(), q14(), q19()}
}

// q3 is TPC-H Q3: shipping priority — customers of one market segment with
// orders placed before, and lineitems shipped after, a date.
func q3() *query.Query {
	return &query.Query{
		ID: "tpch3",
		Rels: []query.Rel{
			{Alias: "c", Table: "customer", Preds: []*query.Pred{query.EqStr("mktsegment", "BUILDING")}},
			{Alias: "o", Table: "orders", Preds: []*query.Pred{query.LtInt("orderdate", 760)}},
			{Alias: "l", Table: "lineitem", Preds: []*query.Pred{query.GtInt("shipdate", 760)}},
		},
		Joins: []query.Join{
			{LeftAlias: "c", LeftCol: "id", RightAlias: "o", RightCol: "customer_id"},
			{LeftAlias: "l", LeftCol: "order_id", RightAlias: "o", RightCol: "id"},
		},
	}
}

// q4 is TPC-H Q4: order priority checking — orders of one quarter joined
// with their late lineitems.
func q4() *query.Query {
	return &query.Query{
		ID: "tpch4",
		Rels: []query.Rel{
			{Alias: "o", Table: "orders", Preds: []*query.Pred{query.Between("orderdate", 912, 1003)}},
			{Alias: "l", Table: "lineitem", Preds: []*query.Pred{query.GtInt("shipdate", 1003)}},
		},
		Joins: []query.Join{
			{LeftAlias: "l", LeftCol: "order_id", RightAlias: "o", RightCol: "id"},
		},
	}
}

// q7 is TPC-H Q7: volume shipping — supplier and customer nations fixed to
// a trading pair, lineitems within a two-year window.
func q7() *query.Query {
	return &query.Query{
		ID: "tpch7",
		Rels: []query.Rel{
			{Alias: "s", Table: "supplier"},
			{Alias: "l", Table: "lineitem", Preds: []*query.Pred{query.Between("shipdate", 730, 1460)}},
			{Alias: "o", Table: "orders"},
			{Alias: "c", Table: "customer"},
			{Alias: "n1", Table: "nation", Preds: []*query.Pred{query.EqStr("name", "FRANCE")}},
			{Alias: "n2", Table: "nation", Preds: []*query.Pred{query.EqStr("name", "GERMANY")}},
		},
		Joins: []query.Join{
			{LeftAlias: "s", LeftCol: "id", RightAlias: "l", RightCol: "supplier_id"},
			{LeftAlias: "l", LeftCol: "order_id", RightAlias: "o", RightCol: "id"},
			{LeftAlias: "o", LeftCol: "customer_id", RightAlias: "c", RightCol: "id"},
			{LeftAlias: "s", LeftCol: "nation_id", RightAlias: "n1", RightCol: "id"},
			{LeftAlias: "c", LeftCol: "nation_id", RightAlias: "n2", RightCol: "id"},
		},
	}
}

// q9 is TPC-H Q9: product type profit — lineitems of parts of one material
// traced through supplier nation and order.
func q9() *query.Query {
	return &query.Query{
		ID: "tpch9",
		Rels: []query.Rel{
			{Alias: "p", Table: "part", Preds: []*query.Pred{query.Like("type", "%STEEL")}},
			{Alias: "s", Table: "supplier"},
			{Alias: "l", Table: "lineitem"},
			{Alias: "o", Table: "orders"},
			{Alias: "n", Table: "nation"},
		},
		Joins: []query.Join{
			{LeftAlias: "p", LeftCol: "id", RightAlias: "l", RightCol: "part_id"},
			{LeftAlias: "s", LeftCol: "id", RightAlias: "l", RightCol: "supplier_id"},
			{LeftAlias: "l", LeftCol: "order_id", RightAlias: "o", RightCol: "id"},
			{LeftAlias: "s", LeftCol: "nation_id", RightAlias: "n", RightCol: "id"},
		},
	}
}

// q12 is TPC-H Q12: shipping modes and order priority — urgent orders with
// lineitems shipped in one year.
func q12() *query.Query {
	return &query.Query{
		ID: "tpch12",
		Rels: []query.Rel{
			{Alias: "o", Table: "orders", Preds: []*query.Pred{query.InStr("orderpriority", "1-URGENT", "2-HIGH")}},
			{Alias: "l", Table: "lineitem", Preds: []*query.Pred{query.Between("shipdate", 1095, 1460)}},
		},
		Joins: []query.Join{
			{LeftAlias: "l", LeftCol: "order_id", RightAlias: "o", RightCol: "id"},
		},
	}
}

// q14 is TPC-H Q14: promotion effect — promo parts in a one-month shipping
// window.
func q14() *query.Query {
	return &query.Query{
		ID: "tpch14",
		Rels: []query.Rel{
			{Alias: "l", Table: "lineitem", Preds: []*query.Pred{query.Between("shipdate", 1186, 1216)}},
			{Alias: "p", Table: "part", Preds: []*query.Pred{query.Like("type", "PROMO%")}},
		},
		Joins: []query.Join{
			{LeftAlias: "l", LeftCol: "part_id", RightAlias: "p", RightCol: "id"},
		},
	}
}

// q19 is TPC-H Q19: discounted revenue — one brand, small sizes, low
// quantities.
func q19() *query.Query {
	return &query.Query{
		ID: "tpch19",
		Rels: []query.Rel{
			{Alias: "l", Table: "lineitem", Preds: []*query.Pred{query.Between("quantity", 1, 11)}},
			{Alias: "p", Table: "part", Preds: []*query.Pred{
				query.EqStr("brand", "Brand#12"),
				query.Between("size", 1, 5),
			}},
		},
		Joins: []query.Join{
			{LeftAlias: "l", LeftCol: "part_id", RightAlias: "p", RightCol: "id"},
		},
	}
}

// q5 is TPC-H Q5: local supplier volume, unchanged from the figure-4
// appendix rendering.
func q5() *query.Query {
	return &query.Query{
		ID: "tpch5",
		Rels: []query.Rel{
			{Alias: "c", Table: "customer"},
			{Alias: "o", Table: "orders", Preds: []*query.Pred{query.Between("orderdate", 730, 1095)}},
			{Alias: "l", Table: "lineitem"},
			{Alias: "s", Table: "supplier"},
			{Alias: "n", Table: "nation"},
			{Alias: "r", Table: "region", Preds: []*query.Pred{query.EqStr("name", "ASIA")}},
		},
		Joins: []query.Join{
			{LeftAlias: "c", LeftCol: "id", RightAlias: "o", RightCol: "customer_id"},
			{LeftAlias: "l", LeftCol: "order_id", RightAlias: "o", RightCol: "id"},
			{LeftAlias: "l", LeftCol: "supplier_id", RightAlias: "s", RightCol: "id"},
			{LeftAlias: "c", LeftCol: "nation_id", RightAlias: "s", RightCol: "nation_id"},
			{LeftAlias: "s", LeftCol: "nation_id", RightAlias: "n", RightCol: "id"},
			{LeftAlias: "n", LeftCol: "region_id", RightAlias: "r", RightCol: "id"},
		},
	}
}

// q8 is TPC-H Q8: national market share, unchanged from the figure-4
// appendix rendering.
func q8() *query.Query {
	return &query.Query{
		ID: "tpch8",
		Rels: []query.Rel{
			{Alias: "p", Table: "part", Preds: []*query.Pred{query.EqStr("type", "ECONOMY ANODIZED STEEL")}},
			{Alias: "s", Table: "supplier"},
			{Alias: "l", Table: "lineitem"},
			{Alias: "o", Table: "orders", Preds: []*query.Pred{query.Between("orderdate", 1095, 1825)}},
			{Alias: "c", Table: "customer"},
			{Alias: "n1", Table: "nation"},
			{Alias: "n2", Table: "nation"},
			{Alias: "r", Table: "region", Preds: []*query.Pred{query.EqStr("name", "AMERICA")}},
		},
		Joins: []query.Join{
			{LeftAlias: "p", LeftCol: "id", RightAlias: "l", RightCol: "part_id"},
			{LeftAlias: "s", LeftCol: "id", RightAlias: "l", RightCol: "supplier_id"},
			{LeftAlias: "l", LeftCol: "order_id", RightAlias: "o", RightCol: "id"},
			{LeftAlias: "o", LeftCol: "customer_id", RightAlias: "c", RightCol: "id"},
			{LeftAlias: "c", LeftCol: "nation_id", RightAlias: "n1", RightCol: "id"},
			{LeftAlias: "n1", LeftCol: "region_id", RightAlias: "r", RightCol: "id"},
			{LeftAlias: "s", LeftCol: "nation_id", RightAlias: "n2", RightCol: "id"},
		},
	}
}

// q10 is TPC-H Q10: returned item reporting, unchanged from the figure-4
// appendix rendering.
func q10() *query.Query {
	return &query.Query{
		ID: "tpch10",
		Rels: []query.Rel{
			{Alias: "c", Table: "customer"},
			{Alias: "o", Table: "orders", Preds: []*query.Pred{query.Between("orderdate", 821, 911)}},
			{Alias: "l", Table: "lineitem", Preds: []*query.Pred{query.EqStr("returnflag", "R")}},
			{Alias: "n", Table: "nation"},
		},
		Joins: []query.Join{
			{LeftAlias: "c", LeftCol: "id", RightAlias: "o", RightCol: "customer_id"},
			{LeftAlias: "l", LeftCol: "order_id", RightAlias: "o", RightCol: "id"},
			{LeftAlias: "c", LeftCol: "nation_id", RightAlias: "n", RightCol: "id"},
		},
	}
}
