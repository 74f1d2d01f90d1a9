// Package sql implements the SQL front-end of the engine: a lexer, a
// recursive-descent parser for the dialect subset the evaluation needs, and
// a binder that turns statements into logical plans against the catalog.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexer tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokSymbol // one of ( ) , . ; * = < > <= >= <> + - / %
)

// Token is one lexical unit.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased
	Pos  int    // byte offset in the input
}

// keywords recognized by the lexer (value irrelevant).
var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true,
	"GROUP": true, "BY": true, "HAVING": true, "ORDER": true, "LIMIT": true,
	"ASC": true, "DESC": true, "JOIN": true, "INNER": true, "ON": true,
	"AND": true, "OR": true, "NOT": true, "NULL": true, "IS": true,
	"AS": true, "COUNT": true, "SUM": true, "MIN": true, "MAX": true,
	"CREATE": true, "TABLE": true, "DROP": true, "INSERT": true,
	"INTO": true, "VALUES": true, "PARTITIONS": true, "SORTKEY": true,
	"PATCHINDEX": true, "UNIQUE": true, "SORTED": true, "THRESHOLD": true,
	"KIND": true, "IDENTIFIER": true, "BITMAP": true, "AUTO": true,
	"FORCE": true, "EXPLAIN": true, "ANALYZE": true, "SHOW": true,
	"TRUE": true, "FALSE": true, "LEFT": true,
	"OUTER": true, "DATE": true, "COPY": true, "HEADER": true, "WITH": true,
	"ALTER": true, "TUNER": true,
}

// Lex tokenizes the input. It returns an error for unterminated strings or
// unexpected characters.
func Lex(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			// line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(input[i]) {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, Token{Kind: TokKeyword, Text: up, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: strings.ToLower(word), Pos: start})
			}
		case c >= '0' && c <= '9':
			start := i
			seenDot := false
			for i < n && (input[i] >= '0' && input[i] <= '9' || input[i] == '.' && !seenDot) {
				if input[i] == '.' {
					// Lookahead: "1." followed by non-digit is number then dot.
					if i+1 >= n || input[i+1] < '0' || input[i+1] > '9' {
						break
					}
					seenDot = true
				}
				i++
			}
			toks = append(toks, Token{Kind: TokNumber, Text: input[start:i], Pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string literal at offset %d", start)
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: start})
		case c == '<':
			if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
				toks = append(toks, Token{Kind: TokSymbol, Text: input[i : i+2], Pos: i})
				i += 2
			} else {
				toks = append(toks, Token{Kind: TokSymbol, Text: "<", Pos: i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, Token{Kind: TokSymbol, Text: ">=", Pos: i})
				i += 2
			} else {
				toks = append(toks, Token{Kind: TokSymbol, Text: ">", Pos: i})
				i++
			}
		case c == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, Token{Kind: TokSymbol, Text: "<>", Pos: i})
				i += 2
			} else {
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
			}
		case strings.IndexByte("(),.;*=+-/%", c) >= 0:
			toks = append(toks, Token{Kind: TokSymbol, Text: string(c), Pos: i})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || unicode.IsLetter(rune(c))
}
