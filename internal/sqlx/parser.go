package sqlx

import (
	"fmt"
	"strconv"
	"strings"

	"nexus/internal/table"
)

// Query is the parsed form of a supported aggregate query:
//
//	SELECT g1[, g2...], agg(outcome) FROM t [JOIN t2 ON a = b]
//	[WHERE cond [AND cond]...] GROUP BY g1[, g2...]
type Query struct {
	GroupBy []string      // exposure attributes T (≥1)
	Agg     table.AggFunc // aggregation applied to the outcome
	Outcome string        // outcome attribute O
	Table   string        // primary table
	Join    *JoinClause   // optional join
	Where   []Condition   // conjunctive context C

	Raw string // original SQL text
}

// JoinClause describes "JOIN right ON left.col = right.col" (table
// qualifiers optional).
type JoinClause struct {
	Table    string
	LeftKey  string
	RightKey string
}

// CompareOp is a comparison operator in a WHERE condition.
type CompareOp string

// Supported comparison operators.
const (
	OpEq CompareOp = "="
	OpNe CompareOp = "!="
	OpLt CompareOp = "<"
	OpLe CompareOp = "<="
	OpGt CompareOp = ">"
	OpGe CompareOp = ">="
)

// Condition is one conjunct of the WHERE clause: Attr Op Value.
type Condition struct {
	Attr  string
	Op    CompareOp
	Str   string  // string literal (when IsStr)
	Num   float64 // numeric literal (when !IsStr)
	IsStr bool
}

// String renders the condition as SQL.
func (c Condition) String() string {
	if c.IsStr {
		return fmt.Sprintf("%s %s %s", quoteIdent(c.Attr), c.Op, quoteString(c.Str))
	}
	return fmt.Sprintf("%s %s %g", quoteIdent(c.Attr), c.Op, c.Num)
}

// quoteIdent renders a name so that it lexes back as one identifier: bare
// where the lexer would read it whole, otherwise quoted in the style its
// bytes allow (a back-quoted name cannot hold '`', a bracketed one ']').
func quoteIdent(s string) string {
	bare := s != "" && isIdentStart(rune(s[0]))
	for i := 1; bare && i < len(s); i++ {
		bare = isIdentPart(rune(s[i]))
	}
	switch {
	case bare:
		return s
	case !strings.Contains(s, "`"):
		return "`" + s + "`"
	default:
		return "[" + s + "]"
	}
}

// quoteString renders a string literal in whichever quote it does not
// contain (the lexer has no escapes). A value holding both can only have
// been written as a quoted identifier, which the parser also accepts as a
// value, so it goes back out as one.
func quoteString(s string) string {
	switch {
	case !strings.Contains(s, "'"):
		return "'" + s + "'"
	case !strings.Contains(s, `"`):
		return `"` + s + `"`
	default:
		return quoteIdent(s)
	}
}

// Exposure returns the primary exposure attribute (first GROUP BY key).
func (q *Query) Exposure() string { return q.GroupBy[0] }

// String reproduces a canonical SQL rendering of the query, one that Parse
// accepts and renders back unchanged (FuzzParse).
func (q *Query) String() string {
	groupBy := make([]string, len(q.GroupBy))
	for i, g := range q.GroupBy {
		groupBy[i] = quoteIdent(g)
	}
	outcome := quoteIdent(q.Outcome)
	if q.Outcome == "*" && q.Agg == table.AggCount {
		outcome = "*"
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(strings.Join(groupBy, ", "))
	fmt.Fprintf(&b, ", %s(%s) FROM %s", q.Agg, outcome, quoteIdent(q.Table))
	if q.Join != nil {
		fmt.Fprintf(&b, " JOIN %s ON %s = %s", quoteIdent(q.Join.Table), quoteIdent(q.Join.LeftKey), quoteIdent(q.Join.RightKey))
	}
	if len(q.Where) > 0 {
		b.WriteString(" WHERE ")
		parts := make([]string, len(q.Where))
		for i, c := range q.Where {
			parts[i] = c.String()
		}
		b.WriteString(strings.Join(parts, " AND "))
	}
	b.WriteString(" GROUP BY ")
	b.WriteString(strings.Join(groupBy, ", "))
	return b.String()
}

type parser struct {
	toks []token
	pos  int
	src  string
}

// Parse parses a SQL string into a Query.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	q.Raw = src
	return q, nil
}

// MustParse parses or panics; for fixtures and examples.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("sqlx: expected %s at position %d (got %q)", kw, t.pos, t.text)
	}
	return nil
}

func (p *parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) parseIdent() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", fmt.Errorf("sqlx: expected identifier at position %d (got %q)", t.pos, t.text)
	}
	// Optional "table.column" qualifier — keep only the column.
	if p.cur().kind == tokDot {
		p.next()
		t2 := p.next()
		if t2.kind != tokIdent {
			return "", fmt.Errorf("sqlx: expected identifier after '.' at position %d", t2.pos)
		}
		return t2.text, nil
	}
	return t.text, nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}

	// Select list: idents and exactly one agg(outcome).
	for {
		t := p.cur()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("sqlx: expected select item at position %d", t.pos)
		}
		name, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if p.cur().kind == tokLParen {
			// Aggregation.
			p.next()
			fn, err := table.ParseAggFunc(strings.ToLower(name))
			if err != nil {
				return nil, fmt.Errorf("sqlx: %v", err)
			}
			if q.Outcome != "" {
				return nil, fmt.Errorf("sqlx: multiple aggregations are not supported")
			}
			var outcome string
			if p.cur().kind == tokStar && fn == table.AggCount {
				p.next()
				outcome = "*"
			} else {
				outcome, err = p.parseIdent()
				if err != nil {
					return nil, err
				}
			}
			if p.next().kind != tokRParen {
				return nil, fmt.Errorf("sqlx: expected ')' after aggregation argument")
			}
			q.Agg = fn
			q.Outcome = outcome
		} else {
			q.GroupBy = append(q.GroupBy, name)
		}
		if p.cur().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if q.Outcome == "" {
		return nil, fmt.Errorf("sqlx: query must aggregate an outcome attribute")
	}
	if len(q.GroupBy) == 0 {
		return nil, fmt.Errorf("sqlx: query must group by an exposure attribute")
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.parseIdent()
	if err != nil {
		return nil, err
	}
	q.Table = tbl

	if p.atKeyword("JOIN") {
		p.next()
		jt, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		lk, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		op := p.next()
		if op.kind != tokOp || op.text != "=" {
			return nil, fmt.Errorf("sqlx: join condition must be an equality")
		}
		rk, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		q.Join = &JoinClause{Table: jt, LeftKey: lk, RightKey: rk}
	}

	if p.atKeyword("WHERE") {
		p.next()
		for {
			cond, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, cond)
			if p.atKeyword("AND") {
				p.next()
				continue
			}
			break
		}
	}

	if err := p.expectKeyword("GROUP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("BY"); err != nil {
		return nil, err
	}
	var groupCols []string
	for {
		g, err := p.parseIdent()
		if err != nil {
			return nil, err
		}
		groupCols = append(groupCols, g)
		if p.cur().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if !sameStrings(groupCols, q.GroupBy) {
		return nil, fmt.Errorf("sqlx: GROUP BY columns %v must match the non-aggregated select list %v", groupCols, q.GroupBy)
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("sqlx: unexpected trailing input at position %d (%q)", p.cur().pos, p.cur().text)
	}
	return q, nil
}

func (p *parser) parseCondition() (Condition, error) {
	attr, err := p.parseIdent()
	if err != nil {
		return Condition{}, err
	}
	op := p.next()
	if op.kind != tokOp {
		return Condition{}, fmt.Errorf("sqlx: expected comparison operator at position %d", op.pos)
	}
	val := p.next()
	cond := Condition{Attr: attr, Op: CompareOp(op.text)}
	switch val.kind {
	case tokString:
		cond.IsStr = true
		cond.Str = val.text
	case tokIdent:
		// Allow unquoted string values (WHERE Continent = Europe).
		cond.IsStr = true
		cond.Str = val.text
	case tokNumber:
		f, err := strconv.ParseFloat(val.text, 64)
		if err != nil {
			return Condition{}, fmt.Errorf("sqlx: bad number %q: %v", val.text, err)
		}
		cond.Num = f
	default:
		return Condition{}, fmt.Errorf("sqlx: expected literal at position %d", val.pos)
	}
	if cond.IsStr && cond.Op != OpEq && cond.Op != OpNe {
		return Condition{}, fmt.Errorf("sqlx: operator %s not supported for string literals", cond.Op)
	}
	return cond, nil
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	inB := make(map[string]bool, len(b))
	for _, s := range b {
		inB[s] = true
	}
	for _, s := range a {
		if !inB[s] {
			return false
		}
	}
	return true
}
