package cep

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"patterndp/internal/event"
)

// Parse compiles a textual pattern query into an expression tree. The
// grammar (case-insensitive keywords, identifiers are event types):
//
//	query  := expr [ "WITHIN" number ]
//	expr   := "SEQ"   "(" list ")"
//	        | "AND"   "(" list ")"
//	        | "OR"    "(" list ")"
//	        | "NEG"   "(" expr ")"
//	        | "TIMES" "(" expr "," number [ "," number ] ")"
//	        | ident
//	list   := expr { "," expr }
//
// Identifiers may contain letters, digits, '-', '_', '.' and ':'.
// Examples:
//
//	SEQ(enter-taxi, near-hospital) WITHIN 10
//	AND(oven-on, NEG(door-close))
//	TIMES(retry, 3)            // at least 3 occurrences
//	TIMES(retry, 1, 2)         // between 1 and 2 occurrences
//
// Parse returns the expression and the window width (0 when no WITHIN
// clause is given).
func Parse(input string) (Expr, event.Timestamp, error) {
	p := &parser{toks: lex(input)}
	expr, err := p.parseExpr()
	if err != nil {
		return nil, 0, err
	}
	var window event.Timestamp
	if p.peek().kind == tokIdent && strings.EqualFold(p.peek().text, "WITHIN") {
		p.next()
		num := p.next()
		if num.kind != tokNumber {
			return nil, 0, p.errf(num, "WITHIN requires a number, got %q", num.text)
		}
		n, err := strconv.ParseInt(num.text, 10, 64)
		if err != nil || n <= 0 {
			return nil, 0, p.errf(num, "invalid window %q", num.text)
		}
		window = event.Timestamp(n)
	}
	if t := p.next(); t.kind != tokEOF {
		return nil, 0, p.errf(t, "unexpected trailing input %q", t.text)
	}
	if err := expr.validate(); err != nil {
		return nil, 0, err
	}
	return expr, window, nil
}

// ParseQuery parses "name: query-text" into a registered Query. The window
// defaults to defaultWindow when the text has no WITHIN clause.
func ParseQuery(name, input string, defaultWindow event.Timestamp) (Query, error) {
	expr, window, err := Parse(input)
	if err != nil {
		return Query{}, fmt.Errorf("cep: parsing query %q: %w", name, err)
	}
	if window == 0 {
		window = defaultWindow
	}
	q := Query{Name: name, Pattern: expr, Window: window}
	if err := q.Validate(); err != nil {
		return Query{}, err
	}
	return q, nil
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokLParen
	tokRParen
	tokComma
	tokError
)

type token struct {
	kind tokKind
	text string
	pos  int
}

func lex(input string) []token {
	var toks []token
	i := 0
	for i < len(input) {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case unicode.IsDigit(c):
			j := i
			for j < len(input) && unicode.IsDigit(rune(input[j])) {
				j++
			}
			toks = append(toks, token{tokNumber, input[i:j], i})
			i = j
		case isIdentRune(c):
			j := i
			for j < len(input) && isIdentRune(rune(input[j])) {
				j++
			}
			toks = append(toks, token{tokIdent, input[i:j], i})
			i = j
		default:
			toks = append(toks, token{tokError, string(c), i})
			i++
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks
}

func isIdentRune(c rune) bool {
	return unicode.IsLetter(c) || unicode.IsDigit(c) ||
		c == '-' || c == '_' || c == '.' || c == ':'
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return fmt.Errorf("cep: parse error at offset %d: %s", t.pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseExpr() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokIdent:
		upper := strings.ToUpper(t.text)
		switch upper {
		case "SEQ", "AND", "OR":
			parts, err := p.parseList()
			if err != nil {
				return nil, err
			}
			switch upper {
			case "SEQ":
				return &Seq{Parts: parts}, nil
			case "AND":
				return &And{Parts: parts}, nil
			default:
				return &Or{Parts: parts}, nil
			}
		case "NEG":
			if err := p.expect(tokLParen); err != nil {
				return nil, err
			}
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &Neg{Inner: inner}, nil
		case "TIMES":
			return p.parseTimes()
		case "WITHIN":
			return nil, p.errf(t, "WITHIN without a preceding expression")
		default:
			// Plain event type atom. A following '(' would be a typo'd
			// operator; reject it explicitly.
			if p.peek().kind == tokLParen {
				return nil, p.errf(t, "unknown operator %q", t.text)
			}
			return &Atom{Type: event.Type(t.text)}, nil
		}
	case tokError:
		return nil, p.errf(t, "invalid character %q", t.text)
	default:
		return nil, p.errf(t, "expected an expression, got %q", t.text)
	}
}

func (p *parser) parseTimes() (Expr, error) {
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	inner, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokComma); err != nil {
		return nil, err
	}
	minTok := p.next()
	if minTok.kind != tokNumber {
		return nil, p.errf(minTok, "TIMES minimum must be a number, got %q", minTok.text)
	}
	minV, err := strconv.Atoi(minTok.text)
	if err != nil {
		return nil, p.errf(minTok, "invalid number %q", minTok.text)
	}
	maxV := 0
	if p.peek().kind == tokComma {
		p.next()
		maxTok := p.next()
		if maxTok.kind != tokNumber {
			return nil, p.errf(maxTok, "TIMES maximum must be a number, got %q", maxTok.text)
		}
		maxV, err = strconv.Atoi(maxTok.text)
		if err != nil {
			return nil, p.errf(maxTok, "invalid number %q", maxTok.text)
		}
	}
	if err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return &Times{Inner: inner, Min: minV, Max: maxV}, nil
}

func (p *parser) parseList() ([]Expr, error) {
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var parts []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		parts = append(parts, e)
		t := p.next()
		switch t.kind {
		case tokComma:
			continue
		case tokRParen:
			return parts, nil
		default:
			return nil, p.errf(t, "expected ',' or ')', got %q", t.text)
		}
	}
}

func (p *parser) expect(kind tokKind) error {
	t := p.next()
	if t.kind != kind {
		want := map[tokKind]string{
			tokLParen: "'('", tokRParen: "')'", tokComma: "','",
		}[kind]
		return p.errf(t, "expected %s, got %q", want, t.text)
	}
	return nil
}
