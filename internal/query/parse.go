package query

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSQL parses a select-project-join query in the JOB dialect back into a
// Query. The grammar covers exactly the workload's SQL surface:
//
//	SELECT <ignored> FROM tbl alias [, tbl alias]...
//	WHERE cond [AND cond]... [;]
//
//	cond := a.c = a2.c2                  (equi-join)
//	      | a.c <op> <int>               (op: = != <> < <= > >=)
//	      | a.c = '<str>' | a.c != '<str>' | a.c <> '<str>'
//	      | a.c BETWEEN <int> AND <int>
//	      | a.c IN (<int|str list>)
//	      | a.c [NOT] LIKE '<pattern>'
//	      | a.c IS [NOT] NULL
//	      | (cond OR cond [OR cond]...)
//
// Keywords are case-insensitive; strings use single quotes with ” escaping.
// Together with Query.SQL it round-trips the entire JOB workload, so users
// can define their own queries as text.
func ParseSQL(id, sql string) (*Query, error) {
	p := &parser{toks: tokenize(sql)}
	q := &Query{ID: id}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	// Skip the projection list: everything up to FROM.
	for !p.atKeyword("FROM") {
		if p.eof() {
			return nil, fmt.Errorf("query %s: missing FROM", id)
		}
		p.next()
	}
	p.next() // FROM
	// Relation list.
	for {
		table, err := p.ident()
		if err != nil {
			return nil, fmt.Errorf("query %s: table name: %v", id, err)
		}
		alias := table
		if p.peekKind() == tokIdent && !p.atKeyword("WHERE") {
			alias, _ = p.ident()
		}
		q.Rels = append(q.Rels, Rel{Alias: alias, Table: table})
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	if p.eof() || p.atPunct(";") {
		return q, nil
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	for {
		if err := p.condition(q); err != nil {
			return nil, fmt.Errorf("query %s: %v", id, err)
		}
		if p.atKeyword("AND") {
			p.next()
			continue
		}
		break
	}
	if p.atPunct(";") {
		p.next()
	}
	if !p.eof() {
		return nil, fmt.Errorf("query %s: trailing input near %q", id, p.peekText())
	}
	return q, nil
}

// --- tokenizer ---------------------------------------------------------------

type tokKind uint8

const (
	tokIdent tokKind = iota
	tokNumber
	tokString
	tokOp    // = != <> < <= > >=
	tokPunct // ( ) , . ;
)

type token struct {
	kind tokKind
	text string
}

func tokenize(s string) []token {
	var toks []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			// String literal with '' escaping.
			j := i + 1
			var b strings.Builder
			for j < len(s) {
				if s[j] == '\'' {
					if j+1 < len(s) && s[j+1] == '\'' {
						b.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				b.WriteByte(s[j])
				j++
			}
			toks = append(toks, token{tokString, b.String()})
			i = j + 1
		case c >= '0' && c <= '9' || (c == '-' && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9'):
			j := i + 1
			for j < len(s) && s[j] >= '0' && s[j] <= '9' {
				j++
			}
			toks = append(toks, token{tokNumber, s[i:j]})
			i = j
		case isIdentChar(c):
			j := i
			for j < len(s) && isIdentChar(s[j]) {
				j++
			}
			toks = append(toks, token{tokIdent, s[i:j]})
			i = j
		case c == '<' || c == '>' || c == '=' || c == '!':
			j := i + 1
			if j < len(s) && (s[j] == '=' || (c == '<' && s[j] == '>')) {
				j++
			}
			toks = append(toks, token{tokOp, s[i:j]})
			i = j
		case c == '(' || c == ')' || c == ',' || c == '.' || c == ';':
			toks = append(toks, token{tokPunct, string(c)})
			i++
		default:
			// Unknown byte: emit as punct so the parser reports it.
			toks = append(toks, token{tokPunct, string(c)})
			i++
		}
	}
	return toks
}

func isIdentChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// --- parser ------------------------------------------------------------------

type parser struct {
	toks []token
	pos  int
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() (token, bool) {
	if p.eof() {
		return token{}, false
	}
	return p.toks[p.pos], true
}

func (p *parser) peekKind() tokKind {
	t, ok := p.peek()
	if !ok {
		return tokPunct
	}
	return t.kind
}

func (p *parser) peekText() string {
	t, ok := p.peek()
	if !ok {
		return "<eof>"
	}
	return t.text
}

func (p *parser) next() token {
	t, _ := p.peek()
	p.pos++
	return t
}

func (p *parser) atKeyword(kw string) bool {
	t, ok := p.peek()
	return ok && t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) atPunct(s string) bool {
	t, ok := p.peek()
	return ok && t.kind == tokPunct && t.text == s
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return fmt.Errorf("expected %s, found %q", kw, p.peekText())
	}
	p.next()
	return nil
}

func (p *parser) expectPunct(s string) error {
	if !p.atPunct(s) {
		return fmt.Errorf("expected %q, found %q", s, p.peekText())
	}
	p.next()
	return nil
}

func (p *parser) ident() (string, error) {
	t, ok := p.peek()
	if !ok || t.kind != tokIdent {
		return "", fmt.Errorf("expected identifier, found %q", p.peekText())
	}
	p.next()
	return t.text, nil
}

// colRef parses alias.column.
func (p *parser) colRef() (alias, col string, err error) {
	alias, err = p.ident()
	if err != nil {
		return "", "", err
	}
	if err := p.expectPunct("."); err != nil {
		return "", "", err
	}
	col, err = p.ident()
	if err != nil {
		return "", "", err
	}
	return alias, col, nil
}

// condition parses one WHERE conjunct into either a join or a predicate and
// attaches it to q.
func (p *parser) condition(q *Query) error {
	if p.atPunct("(") {
		// Parenthesised disjunction.
		p.next()
		alias, pred, err := p.orChain()
		if err != nil {
			return err
		}
		if err := p.expectPunct(")"); err != nil {
			return err
		}
		return attachPred(q, alias, pred)
	}
	alias, col, err := p.colRef()
	if err != nil {
		return err
	}
	// Join predicate: a.c = a2.c2 (right side is a column reference).
	if t, ok := p.peek(); ok && t.kind == tokOp && t.text == "=" {
		if p.pos+2 < len(p.toks) &&
			p.toks[p.pos+1].kind == tokIdent &&
			p.toks[p.pos+2].kind == tokPunct && p.toks[p.pos+2].text == "." {
			p.next() // =
			a2, c2, err := p.colRef()
			if err != nil {
				return err
			}
			if q.RelIndex(alias) < 0 || q.RelIndex(a2) < 0 {
				return fmt.Errorf("join on unknown alias %q/%q", alias, a2)
			}
			q.Joins = append(q.Joins, Join{LeftAlias: alias, LeftCol: col, RightAlias: a2, RightCol: c2})
			return nil
		}
	}
	pred, err := p.predTail(col)
	if err != nil {
		return err
	}
	return attachPred(q, alias, pred)
}

// orChain parses cond OR cond [OR cond]... where all conds are predicates on
// the same alias.
func (p *parser) orChain() (string, *Pred, error) {
	alias, col, err := p.colRef()
	if err != nil {
		return "", nil, err
	}
	first, err := p.predTail(col)
	if err != nil {
		return "", nil, err
	}
	preds := []*Pred{first}
	for p.atKeyword("OR") {
		p.next()
		a2, c2, err := p.colRef()
		if err != nil {
			return "", nil, err
		}
		if a2 != alias {
			return "", nil, fmt.Errorf("OR across aliases %s/%s not supported", alias, a2)
		}
		next, err := p.predTail(c2)
		if err != nil {
			return "", nil, err
		}
		preds = append(preds, next)
	}
	if len(preds) == 1 {
		return alias, preds[0], nil
	}
	return alias, Or(preds...), nil
}

// predTail parses the operator and operands of a base-table predicate whose
// column has already been consumed.
func (p *parser) predTail(col string) (*Pred, error) {
	switch {
	case p.atKeyword("BETWEEN"):
		p.next()
		lo, err := p.number()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.number()
		if err != nil {
			return nil, err
		}
		return Between(col, lo, hi), nil
	case p.atKeyword("IN"):
		p.next()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var ints []int64
		var strs []string
		for {
			t, ok := p.peek()
			if !ok {
				return nil, fmt.Errorf("unterminated IN list")
			}
			switch t.kind {
			case tokNumber:
				v, _ := strconv.ParseInt(t.text, 10, 64)
				ints = append(ints, v)
			case tokString:
				strs = append(strs, t.text)
			default:
				return nil, fmt.Errorf("bad IN element %q", t.text)
			}
			p.next()
			if p.atPunct(",") {
				p.next()
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if len(strs) > 0 && len(ints) > 0 {
			return nil, fmt.Errorf("mixed-type IN list on %s", col)
		}
		if len(strs) > 0 {
			return InStr(col, strs...), nil
		}
		return InInt(col, ints...), nil
	case p.atKeyword("LIKE"):
		p.next()
		s, err := p.str()
		if err != nil {
			return nil, err
		}
		return Like(col, s), nil
	case p.atKeyword("NOT"):
		p.next()
		if !p.atKeyword("LIKE") {
			return nil, fmt.Errorf("expected LIKE after NOT, found %q", p.peekText())
		}
		p.next()
		s, err := p.str()
		if err != nil {
			return nil, err
		}
		return NotLike(col, s), nil
	case p.atKeyword("IS"):
		p.next()
		if p.atKeyword("NOT") {
			p.next()
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			return NotNull(col), nil
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return IsNull(col), nil
	}
	t, ok := p.peek()
	if !ok || t.kind != tokOp {
		return nil, fmt.Errorf("expected operator after %s, found %q", col, p.peekText())
	}
	op := t.text
	p.next()
	// String or integer operand.
	if v, ok := p.peek(); ok && v.kind == tokString {
		p.next()
		switch op {
		case "=":
			return EqStr(col, v.text), nil
		case "!=", "<>":
			return NeStr(col, v.text), nil
		default:
			return nil, fmt.Errorf("operator %q not supported on strings", op)
		}
	}
	n, err := p.number()
	if err != nil {
		return nil, err
	}
	switch op {
	case "=":
		return EqInt(col, n), nil
	case "!=", "<>":
		return NeInt(col, n), nil
	case "<":
		return LtInt(col, n), nil
	case "<=":
		return LeInt(col, n), nil
	case ">":
		return GtInt(col, n), nil
	case ">=":
		return GeInt(col, n), nil
	default:
		return nil, fmt.Errorf("unknown operator %q", op)
	}
}

func (p *parser) number() (int64, error) {
	t, ok := p.peek()
	if !ok || t.kind != tokNumber {
		return 0, fmt.Errorf("expected number, found %q", p.peekText())
	}
	p.next()
	return strconv.ParseInt(t.text, 10, 64)
}

func (p *parser) str() (string, error) {
	t, ok := p.peek()
	if !ok || t.kind != tokString {
		return "", fmt.Errorf("expected string literal, found %q", p.peekText())
	}
	p.next()
	return t.text, nil
}

func attachPred(q *Query, alias string, pred *Pred) error {
	i := q.RelIndex(alias)
	if i < 0 {
		return fmt.Errorf("predicate on unknown alias %q", alias)
	}
	q.Rels[i].Preds = append(q.Rels[i].Preds, pred)
	return nil
}
