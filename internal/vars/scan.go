package vars

import (
	"slices"
	"strings"
)

// The built-in rules, in priority order. Each is specified as the regular
// expression in its comment and implemented as a byte scanner that returns
// exactly the span RE2's leftmost-first match would; vars_test.go holds the
// expressions as a test oracle and checks the two agree byte for byte.
//
// Applying the rules one after another, each to the previous rule's output,
// equals claiming spans of the original line in rule order: a later rule
// only sees the gaps earlier rules left. That holds because every match
// begins and ends on a word byte with \b on both sides, so the bytes next
// to a match are non-word (or the line's edge) exactly as the bytes of a
// placeholder are, and no placeholder byte occurs in any rule. \b, \d and
// the hex class are ASCII in RE2, so bytes ≥ 0x80 — valid UTF-8 or not —
// are plain non-word bytes here too.
const (
	// \b\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}(?:[.,]\d+)?(?:Z|[+-]\d{2}:?\d{2})?\b
	ruleISOTimestamp = iota
	// \b\d{2,4}[/.]\d{2}[/.]\d{2,4}[ T]\d{2}:\d{2}:\d{2}\b
	ruleSlashDateTime
	// \b\d{2}:\d{2}:\d{2}(?:[.,]\d+)?\b
	ruleClockTime
	// \b[0-9a-fA-F]{8}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{4}-[0-9a-fA-F]{12}\b
	ruleUUID
	// \b(?:[0-9a-fA-F]{1,4}:){3,7}[0-9a-fA-F]{1,4}\b
	ruleIPv6
	// \b(?:\d{1,3}\.){3}\d{1,3}(?::\d{1,5})?\b
	ruleIPv4Port
	// \b(?:0x[0-9a-fA-F]+|[0-9a-fA-F]{32,64})\b
	ruleLongHex
	// \b(?:[0-9a-fA-F]{2}:){5}[0-9a-fA-F]{2}\b
	//
	// Shadowed today: six colon-separated hex pairs are also an ipv6 match
	// (or, all digits, two clock times), and those rules run first.
	ruleMACAddress
	numRules
)

// Byte classes. RE2's \w is [0-9A-Za-z_].
const (
	classWord = 1 << iota
	classHex
	classDigit
)

var class = func() (t [256]uint8) {
	for c := '0'; c <= '9'; c++ {
		t[c] = classWord | classHex | classDigit
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] = classWord
		t[c-'a'+'A'] = classWord
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] |= classHex
		t[c-'a'+'A'] |= classHex
	}
	t['_'] = classWord
	return t
}()

func isWord(c byte) bool  { return class[c]&classWord != 0 }
func isHex(c byte) bool   { return class[c]&classHex != 0 }
func isDigit(c byte) bool { return class[c]&classDigit != 0 }

// candidate is a position where some rule's first byte-class run fits: the
// start of a word on a hex byte whose leading digit or hex run has a length
// and a following byte that rule requires. rules has one bit per such rule.
type candidate struct {
	pos   int
	rules uint8
}

// span is a claimed match, line[start:end].
type span struct{ start, end int }

// scanBuiltins replaces every built-in rule match in line with placeholder.
// It returns line itself when nothing matches and allocates once otherwise
// (lines with more candidates or matches than the stack buffers hold pay
// for the overflow).
func scanBuiltins(line, placeholder string) string {
	var cbuf [16]candidate
	cands := cbuf[:0]
	var seen uint8
	for i := 0; i < len(line); {
		if !isWord(line[i]) {
			i++
			continue
		}
		if isHex(line[i]) {
			d := digitRun(line, i)
			h := hexRun(line, d)
			if rules := rulesStartingWith(line, i, d, h); rules != 0 {
				cands = append(cands, candidate{i, rules})
				seen |= rules
			}
			i = h
		}
		for i < len(line) && isWord(line[i]) {
			i++
		}
	}
	if len(cands) == 0 {
		return line
	}

	// Claim spans rule by rule. claims stays sorted and disjoint; a match
	// attempt sees the line only up to the next span an earlier rule
	// claimed, as the regex saw only up to that span's placeholder.
	var sbuf [16]span
	claims := sbuf[:0]
	matched := 0
	for rule := 0; rule < numRules; rule++ {
		bit := uint8(1) << rule
		if seen&bit == 0 {
			continue
		}
		k := 0
		for _, c := range cands {
			if c.rules&bit == 0 {
				continue
			}
			for k < len(claims) && claims[k].end <= c.pos {
				k++
			}
			limit := len(line)
			if k < len(claims) {
				if claims[k].start <= c.pos {
					continue
				}
				limit = claims[k].start
			}
			end := matchRule(rule, line[:limit], c.pos)
			if end == 0 {
				continue
			}
			claims = slices.Insert(claims, k, span{c.pos, end})
			matched += end - c.pos
		}
	}
	if len(claims) == 0 {
		return line
	}

	var b strings.Builder
	b.Grow(len(line) - matched + len(claims)*len(placeholder))
	at := 0
	for _, s := range claims {
		b.WriteString(line[at:s.start])
		b.WriteString(placeholder)
		at = s.end
	}
	b.WriteString(line[at:])
	return b.String()
}

// rulesStartingWith returns the rules that can match a word starting at s
// whose maximal leading digit run ends at d and hex run at h (s ≤ d ≤ h).
// Every rule fixes the length of its first run and the byte after it — the
// run is maximal in any match because that byte is outside the run's class
// — so most words are dismissed here without trying a rule.
func rulesStartingWith(line string, s, d, h int) (rules uint8) {
	if d < len(line) {
		switch n := d - s; line[d] {
		case '-':
			if n == 4 {
				rules |= 1 << ruleISOTimestamp
			}
		case '/':
			if n >= 2 && n <= 4 {
				rules |= 1 << ruleSlashDateTime
			}
		case '.':
			if n >= 2 && n <= 4 {
				rules |= 1 << ruleSlashDateTime
			}
			if n >= 1 && n <= 3 {
				rules |= 1 << ruleIPv4Port
			}
		case ':':
			if n == 2 {
				rules |= 1 << ruleClockTime
			}
		case 'x':
			if n == 1 && line[s] == '0' {
				rules |= 1 << ruleLongHex
			}
		}
	}
	n := h - s
	if n >= 32 && n <= 64 && boundary(line, h) {
		rules |= 1 << ruleLongHex
	}
	if h < len(line) {
		switch line[h] {
		case '-':
			if n == 8 {
				rules |= 1 << ruleUUID
			}
		case ':':
			if n >= 1 && n <= 4 {
				rules |= 1 << ruleIPv6
			}
			if n == 2 {
				rules |= 1 << ruleMACAddress
			}
		}
	}
	return rules
}

// matchRule returns the end of rule's match beginning at g[s], or 0. s is
// the start of a word; g ends where the text visible to the rule ends.
func matchRule(rule int, g string, s int) int {
	switch rule {
	case ruleISOTimestamp:
		return matchISOTimestamp(g, s)
	case ruleSlashDateTime:
		return matchSlashDateTime(g, s)
	case ruleClockTime:
		return matchClockTime(g, s)
	case ruleUUID:
		return matchUUID(g, s)
	case ruleIPv6:
		return matchIPv6(g, s)
	case ruleIPv4Port:
		return matchIPv4Port(g, s)
	case ruleLongHex:
		return matchLongHex(g, s)
	default:
		return matchMACAddress(g, s)
	}
}

// digitRun returns the end of the maximal run of digits starting at g[i].
func digitRun(g string, i int) int {
	for i < len(g) && isDigit(g[i]) {
		i++
	}
	return i
}

// hexRun returns the end of the maximal run of hex digits starting at g[i].
func hexRun(g string, i int) int {
	for i < len(g) && isHex(g[i]) {
		i++
	}
	return i
}

// digitsAt reports whether g[i:i+n] exists and is all digits.
func digitsAt(g string, i, n int) bool {
	return i+n <= len(g) && digitRun(g[:i+n], i) == i+n
}

// hexAt reports whether g[i:i+n] exists and is all hex digits.
func hexAt(g string, i, n int) bool {
	return i+n <= len(g) && hexRun(g[:i+n], i) == i+n
}

// byteAt reports whether g[i] exists and is c.
func byteAt(g string, i int, c byte) bool { return i < len(g) && g[i] == c }

// eitherAt reports whether g[i] exists and is a or b.
func eitherAt(g string, i int, a, b byte) bool {
	return i < len(g) && (g[i] == a || g[i] == b)
}

// boundary is \b at g[i] after a word byte: the text ends or a non-word
// byte follows.
func boundary(g string, i int) bool {
	return i >= len(g) || !isWord(g[i])
}

// hmsAt matches \d{2}:\d{2}:\d{2} at g[i]; the match is 8 bytes.
func hmsAt(g string, i int) bool {
	return digitsAt(g, i, 2) && byteAt(g, i+2, ':') &&
		digitsAt(g, i+3, 2) && byteAt(g, i+5, ':') &&
		digitsAt(g, i+6, 2)
}

// fractionEnd matches (?:[.,]\d+)? at g[p] with \d+ at its longest and
// returns the end, p when there is no fraction. Callers need not try a
// shorter \d+: a digit would follow it, which neither \b nor a zone allows.
func fractionEnd(g string, p int) int {
	if eitherAt(g, p, '.', ',') && digitsAt(g, p+1, 1) {
		return digitRun(g, p+1)
	}
	return p
}

// zoneEnd matches (?:Z|[+-]\d{2}:?\d{2})\b at g[q] and returns the end, or
// 0. A ':' after the hour is taken when present; the regex's retry without
// it would need that ':' to be a digit.
func zoneEnd(g string, q int) int {
	if q >= len(g) {
		return 0
	}
	switch g[q] {
	case 'Z':
		if boundary(g, q+1) {
			return q + 1
		}
	case '+', '-':
		if !digitsAt(g, q+1, 2) {
			return 0
		}
		m := q + 3
		if byteAt(g, m, ':') {
			m++
		}
		if digitsAt(g, m, 2) && boundary(g, m+2) {
			return m + 2
		}
	}
	return 0
}

func matchISOTimestamp(g string, s int) int {
	if !(digitsAt(g, s, 4) && byteAt(g, s+4, '-') &&
		digitsAt(g, s+5, 2) && byteAt(g, s+7, '-') &&
		digitsAt(g, s+8, 2) && eitherAt(g, s+10, 'T', ' ') && hmsAt(g, s+11)) {
		return 0
	}
	// The regex prefers fraction+zone, then the fraction alone, then —
	// dropping the fraction — a zone alone, then the bare seconds.
	p := s + 19
	q := fractionEnd(g, p)
	if end := zoneEnd(g, q); end != 0 {
		return end
	}
	if boundary(g, q) {
		return q
	}
	if q != p {
		// g[p] is the fraction's '.' or ',': no zone, but a boundary.
		return p
	}
	return 0
}

func matchSlashDateTime(g string, s int) int {
	a := digitRun(g, s)
	if n := a - s; n < 2 || n > 4 {
		return 0
	}
	if !(eitherAt(g, a, '/', '.') && digitsAt(g, a+1, 2) && eitherAt(g, a+3, '/', '.')) {
		return 0
	}
	b := digitRun(g, a+4)
	if n := b - (a + 4); n < 2 || n > 4 {
		return 0
	}
	if eitherAt(g, b, ' ', 'T') && hmsAt(g, b+1) && boundary(g, b+9) {
		return b + 9
	}
	return 0
}

func matchClockTime(g string, s int) int {
	if !hmsAt(g, s) {
		return 0
	}
	p := s + 8
	q := fractionEnd(g, p)
	if boundary(g, q) {
		return q
	}
	if q != p {
		return p
	}
	return 0
}

func matchUUID(g string, s int) int {
	p := s
	for i, n := range [...]int{8, 4, 4, 4, 12} {
		if i > 0 {
			if !byteAt(g, p, '-') {
				return 0
			}
			p++
		}
		if !hexAt(g, p, n) {
			return 0
		}
		p += n
	}
	if boundary(g, p) {
		return p
	}
	return 0
}

func matchIPv6(g string, s int) int {
	p := s      // start of the next group
	groups := 0 // complete "h{1,4}:" groups in g[s:p]
	for groups < 7 {
		e := hexRun(g, p)
		if n := e - p; n < 1 || n > 4 || !byteAt(g, e, ':') {
			break
		}
		p = e + 1
		groups++
	}
	if groups >= 3 {
		e := hexRun(g, p)
		if n := e - p; n >= 1 && n <= 4 && boundary(g, e) {
			return e
		}
	}
	if groups >= 4 {
		// The regex backs off one group: that group's hex run becomes
		// the tail and its ':' the boundary.
		return p - 1
	}
	return 0
}

func matchIPv4Port(g string, s int) int {
	p := s
	for i := 0; i < 3; i++ {
		e := digitRun(g, p)
		if n := e - p; n < 1 || n > 3 || !byteAt(g, e, '.') {
			return 0
		}
		p = e + 1
	}
	e := digitRun(g, p)
	if n := e - p; n < 1 || n > 3 {
		return 0
	}
	if byteAt(g, e, ':') {
		pe := digitRun(g, e+1)
		if n := pe - (e + 1); n >= 1 && n <= 5 && boundary(g, pe) {
			return pe
		}
	}
	if boundary(g, e) {
		return e
	}
	return 0
}

func matchLongHex(g string, s int) int {
	e := hexRun(g, s)
	if e == s+1 && g[s] == '0' && byteAt(g, e, 'x') {
		// The bare-digest alternative cannot match either: 'x' ends the
		// hex run after one byte.
		e = hexRun(g, s+2)
		if e > s+2 && boundary(g, e) {
			return e
		}
		return 0
	}
	if n := e - s; n >= 32 && n <= 64 && boundary(g, e) {
		return e
	}
	return 0
}

func matchMACAddress(g string, s int) int {
	p := s
	for i := 0; i < 6; i++ {
		if i > 0 {
			if !byteAt(g, p, ':') {
				return 0
			}
			p++
		}
		if !hexAt(g, p, 2) {
			return 0
		}
		p += 2
	}
	if boundary(g, p) {
		return p
	}
	return 0
}
