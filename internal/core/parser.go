package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"

	"bytebrain/internal/dedup"
	"bytebrain/internal/encode"
	"bytebrain/internal/grouping"
	"bytebrain/internal/vars"
)

// Parser runs offline training. Construct with New; a Parser is immutable
// and safe for concurrent use.
type Parser struct {
	opts Options
}

// New returns a Parser configured by opts (zero-value fields take
// production defaults; see Options).
func New(opts Options) *Parser {
	return &Parser{opts: opts.withDefaults()}
}

// Options returns the effective (defaulted) options.
func (p *Parser) Options() Options { return p.opts }

// TrainResult is the outcome of one training cycle.
type TrainResult struct {
	// Model is the trained clustering forest.
	Model *Model
	// Assign maps each input line index to the ID of the most precise
	// node (leaf) it was clustered into. This is the assignment the
	// "w/ naive match" ablation evaluates directly.
	Assign []uint64
}

// Train clusters lines into a fresh model (§4.1–§4.7).
func (p *Parser) Train(lines []string) (*TrainResult, error) {
	if len(lines) == 0 {
		return &TrainResult{Model: NewModel()}, nil
	}

	// Deduplicate raw lines before preprocessing: real streams repeat
	// heavily (§4.1.3), so variable replacement and tokenization should
	// run once per distinct line.
	// A second dedup pass after replacement merges lines that differed
	// only in replaced variables.
	rawLines := lines
	var rawWeight []int
	ref := make([]int, len(lines))
	if !p.opts.NoDedup {
		firstAt := make(map[string]int, len(lines)/4+1)
		rawLines = rawLines[:0:0]
		for i, l := range lines {
			d, ok := firstAt[l]
			if !ok {
				d = len(rawLines)
				firstAt[l] = d
				rawLines = append(rawLines, l)
				rawWeight = append(rawWeight, 0)
			}
			rawWeight[d]++
			ref[i] = d
		}
	} else {
		for i := range ref {
			ref[i] = i
		}
	}

	records := p.preprocess(rawLines)

	var enc encode.Encoder = encode.HashEncoder{}
	if p.opts.OrdinalEncoding {
		enc = encode.NewOrdinalEncoder()
	}
	var dd dedup.Result
	if p.opts.NoDedup {
		dd = dedup.Passthrough(records, enc)
	} else {
		dd = dedup.CollapseWeighted(records, rawWeight, enc)
	}

	groups := grouping.Split(dd.Uniques, p.opts.PrefixLen)

	trees := make([]*bnode, len(groups))
	p.forEach(len(groups), func(gi int) {
		g := groups[gi]
		seed := p.opts.Seed ^ int64(encode.Hash64(groupSeedKey(g.Key)))
		rng := rand.New(rand.NewSource(seed))
		trees[gi] = buildTree(g.Records, &p.opts, rng)
	})

	model := NewModel()
	leafOf := make(map[*dedup.Unique]uint64, len(dd.Uniques))
	for _, t := range trees {
		flatten(model, t, NoParent, leafOf)
	}

	assign := make([]uint64, len(lines))
	for i := range lines {
		assign[i] = leafOf[dd.Uniques[dd.Assign[ref[i]]]]
	}
	return &TrainResult{Model: model, Assign: assign}, nil
}

// TrainMerge trains on lines and merges the result into prev (§3: "the
// newly trained model is merged with the previous one"), returning a new
// model; prev is not modified. Temporary nodes in prev are dropped — their
// logs are expected to be part of lines and are re-learned properly.
func (p *Parser) TrainMerge(prev *Model, lines []string) (*TrainResult, error) {
	res, err := p.Train(lines)
	if err != nil {
		return nil, err
	}
	if prev == nil || prev.Len() == 0 {
		return res, nil
	}
	merged, remap, err := MergeModels(prev, res.Model, p.opts.MergeThreshold)
	if err != nil {
		return nil, err
	}
	for i, id := range res.Assign {
		if id != 0 {
			res.Assign[i] = remap[id]
		}
	}
	res.Model = merged
	return res, nil
}

// preprocess applies variable replacement and tokenization to every line,
// in parallel.
func (p *Parser) preprocess(lines []string) [][]string {
	records := make([][]string, len(lines))
	p.forEachChunk(len(lines), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			records[i] = p.PreprocessLine(lines[i])
		}
	})
	return records
}

// PreprocessLine applies the configured variable replacement and
// tokenization to one raw line. Online matching must use the identical
// preprocessing as training; Matcher does so via this method. Replaced
// variables are carried through tokenization with a token-safe sentinel
// and canonicalized to the Wildcard token.
func (p *Parser) PreprocessLine(line string) []string {
	tokens := p.opts.Tokenizer.Tokenize(p.opts.Replacer.ReplaceTokenSafe(line))
	return vars.CanonicalizeTokens(tokens)
}

// appendTokenizer is the optional buffer-reusing surface of a tokenizer;
// tokenize.Fast implements it.
type appendTokenizer interface {
	TokenizeAppend(dst []string, line string) []string
}

// PreprocessLineAppend is PreprocessLine writing tokens into dst (reused
// like append), so a hot loop can preprocess many lines with one token
// buffer. Only the appended tail is canonicalized — any pre-existing dst
// prefix is left untouched, exactly like append. The returned tokens
// must not be retained across the buffer's next reuse — MatchTokens
// already copies before retaining. Tokenizers without TokenizeAppend
// fall back to the allocating path.
func (p *Parser) PreprocessLineAppend(dst []string, line string) []string {
	at, ok := p.opts.Tokenizer.(appendTokenizer)
	if !ok {
		return append(dst, p.PreprocessLine(line)...)
	}
	tokens := at.TokenizeAppend(dst, p.opts.Replacer.ReplaceTokenSafe(line))
	vars.CanonicalizeTokens(tokens[len(dst):])
	return tokens
}

// forEach runs fn(i) for i in [0,n) on up to Parallelism workers.
func (p *Parser) forEach(n int, fn func(i int)) {
	workers := p.workers(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next sync.Mutex
	cursor := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := cursor
				cursor++
				next.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// forEachChunk splits [0,n) into contiguous chunks across workers.
func (p *Parser) forEachChunk(n int, fn func(lo, hi int)) {
	workers := p.workers(n)
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func (p *Parser) workers(n int) int {
	w := p.opts.Parallelism
	if w > n {
		w = n
	}
	if max := runtime.NumCPU(); w > max*2 {
		w = max * 2
	}
	if w < 1 {
		w = 1
	}
	return w
}

// groupSeedKey derives a stable per-group seed component.
func groupSeedKey(k grouping.Key) string {
	return string(rune(k.Length)) + "\x1f" + k.Prefix
}

// flatten assigns IDs to a built tree and inserts its nodes into the model,
// recording the leaf each unique record belongs to.
func flatten(m *Model, b *bnode, parent uint64, leafOf map[*dedup.Unique]uint64) uint64 {
	id := m.newID()
	n := &Node{
		ID:         id,
		Parent:     parent,
		Template:   b.template,
		Saturation: b.saturation,
		Depth:      b.depth,
		Count:      len(b.members),
		Weight:     b.weight,
	}
	m.addNode(n)
	if len(b.children) == 0 {
		for _, u := range b.members {
			leafOf[u] = id
		}
		return id
	}
	for _, c := range b.children {
		flatten(m, c, id, leafOf)
	}
	return id
}

// ErrEmptyModel is returned when a matcher is requested for a model with no
// nodes.
var ErrEmptyModel = errors.New("core: model has no templates")
