// Package vars implements common variable replacement (§4.1.2 of the paper).
//
// Before tokenization-independent clustering, obviously-variable substrings
// (timestamps, IP addresses, hashes, UUIDs, …) are replaced with a wildcard.
// Early replacement of these known variables shrinks the distinct-token
// universe, increases duplication (Fig. 4), and removes noise the clustering
// would otherwise have to discover per position.
//
// The built-in rule set mirrors the per-topic defaults the paper describes
// and is recognised by hand-written byte scanners (scan.go); callers add
// domain-specific regular-expression rules per topic with Add.
package vars

import (
	"fmt"
	"regexp"
)

// Wildcard is the placeholder substituted for matched variables. It is the
// same wildcard used in template text, so a replaced variable and a
// cluster-derived variable render identically.
const Wildcard = "<*>"

// Sentinel is the token-safe stand-in ReplaceTokenSafe substitutes for
// variables. Wildcard itself contains tokenizer delimiters ('<', '>') and
// would be shredded by Listing-1 tokenization; the sentinel is a control
// byte no tokenizer treats as a delimiter. Pipelines tokenize the
// sentinel-substituted line and then canonicalize sentinel-bearing tokens
// back to Wildcard (see CanonicalizeTokens).
const Sentinel = "\x01"

// Replacer applies the built-in rules (when constructed by Default) and
// then any custom rules, in the order they were added, to log lines. It is
// safe for concurrent use after construction.
type Replacer struct {
	builtins bool
	custom   []*regexp.Regexp
}

// Default returns the paper's default rule set: timestamps, IP addresses
// (with optional port), MD5/SHA-style hex digests, UUIDs, MAC addresses and
// 0x-prefixed hex literals.
func Default() *Replacer { return &Replacer{builtins: true} }

// None returns a Replacer that performs no substitutions. Useful for
// ablations that measure the value of variable replacement (Fig. 4).
func None() *Replacer { return &Replacer{} }

// Add appends a domain-specific rule compiled from pattern and returns the
// receiver for chaining. Custom rules run after the built-ins, on their
// output. It panics if pattern does not compile; topic configuration is
// static, so a bad pattern is a programming error.
func (r *Replacer) Add(name, pattern string) *Replacer {
	re, err := regexp.Compile(pattern)
	if err != nil {
		panic(fmt.Sprintf("vars: rule %q: %v", name, err))
	}
	r.custom = append(r.custom, re)
	return r
}

// Replace substitutes every rule match in line with Wildcard. Intended for
// human-facing output; parsing pipelines should use ReplaceTokenSafe so the
// substitution survives tokenization.
func (r *Replacer) Replace(line string) string { return r.replace(line, Wildcard) }

// ReplaceTokenSafe substitutes every rule match with Sentinel, which no
// tokenizer splits. Follow tokenization with CanonicalizeTokens.
func (r *Replacer) ReplaceTokenSafe(line string) string { return r.replace(line, Sentinel) }

func (r *Replacer) replace(line, placeholder string) string {
	if r == nil {
		return line
	}
	if r.builtins {
		line = scanBuiltins(line, placeholder)
	}
	for _, re := range r.custom {
		// ReplaceAllString copies the line even when nothing matches.
		if re.MatchString(line) {
			line = re.ReplaceAllString(line, placeholder)
		}
	}
	return line
}

// CanonicalizeTokens rewrites, in place, every token containing Sentinel to
// the Wildcard token and returns the slice. A token that mixes literal
// bytes with a replaced variable (e.g. "/" glued to an IP) collapses to the
// wildcard as a whole, matching how the paper's templates render such
// positions ("dest *").
func CanonicalizeTokens(tokens []string) []string {
	for i, t := range tokens {
		for j := 0; j < len(t); j++ {
			if t[j] == Sentinel[0] {
				tokens[i] = Wildcard
				break
			}
		}
	}
	return tokens
}
