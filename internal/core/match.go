package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"bytebrain/internal/encode"
)

// MatchResult reports where one log landed.
type MatchResult struct {
	// NodeID is the matched template node.
	NodeID uint64
	// Template is the matched template text.
	Template string
	// New is true when no trained template matched and the log was
	// inserted as a temporary singleton template.
	New bool
}

// Matcher performs online matching (§4.8): logs are matched directly
// against template text in descending saturation order, never by
// re-running distance computations over the tree.
//
// The trained index is immutable after NewMatcher and the model passed in
// is never mutated — matching against trained templates is lock-free, so
// any number of goroutines can share one Matcher at full parallelism.
// Logs that no trained template covers become temporary templates in a
// small internally-synchronized overlay (its lock is only ever taken on
// the miss path). The service publishes (model, matcher) pairs through an
// atomic pointer and swaps them wholesale after retraining; this split is
// what lets it do that without any ingestion-side locking.
type Matcher struct {
	parser *Parser
	model  *Model // trained model; read-only while the Matcher serves it

	// Immutable trained index, built once by NewMatcher.
	index  map[int]*lenBucket
	linear []*indexed // LinearMatch: all trained candidates in order

	// Temporary-template overlay. Trained templates always outrank
	// temporaries (they were inserted first), so the overlay is only
	// consulted after a trained miss. NewMatcherFrom hands the SAME
	// overlay to the successor matcher during a model swap, so matches
	// in flight against the old matcher stay visible to the new one.
	tmp *tempOverlay
}

// tempOverlay is the synchronized temporary-template side of a matcher.
// It is shared across matcher generations: a model swap prunes entries
// the new model absorbed but keeps the object, so no temporary — however
// racily inserted — ever becomes unresolvable. Temporary IDs live in
// their own band (temporaryID), so they never collide with a trained ID.
type tempOverlay struct {
	mu     sync.RWMutex
	index  map[int]*lenBucket
	linear []*indexed // insertion order
	byID   map[uint64]*Node
}

// indexed is one match candidate: a node, its match priority within its
// index (lower first), and its template text — rendered once, when the
// candidate enters the index, so that a match does not join tokens.
type indexed struct {
	node *Node
	rank int
	text string
}

func newIndexed(n *Node, rank int) *indexed {
	return &indexed{node: n, rank: rank, text: n.Text()}
}

// tempIDBand is the top bit of a node ID. Every temporary ID carries it;
// trained IDs count up from 1 (Model.NextID) and never reach it.
const tempIDBand = 1 << 63

// temporaryID derives a temporary template's ID from its token sequence:
// the band bit over a 64-bit hash of a length-prefixed (so injective)
// encoding of the tokens. The same template gets the same ID in every
// process lifetime, so a record stored under a temporary that a restart
// lost can never be claimed by a different template. When taken reports
// a candidate as held by another template, the ID moves to the next one
// in the band.
func temporaryID(tokens []string, taken func(id uint64) bool) uint64 {
	var buf []byte
	for _, t := range tokens {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
	}
	id := tempIDBand | encode.Hash64(string(buf))
	for taken(id) {
		id = tempIDBand | (id + 1)
	}
	return id
}

func newTempOverlay() *tempOverlay {
	return &tempOverlay{
		index: make(map[int]*lenBucket),
		byID:  make(map[uint64]*Node),
	}
}

// lenBucket indexes the candidates of one token count by first token.
type lenBucket struct {
	byFirst   map[string][]*indexed // first token constant
	wildFirst []*indexed            // first token is the wildcard
}

// insertBucket appends c to the bucket for its token count. Candidates
// must arrive in rank order.
func insertBucket(index map[int]*lenBucket, c *indexed) {
	tmpl := c.node.Template
	lb := index[len(tmpl)]
	if lb == nil {
		lb = &lenBucket{byFirst: make(map[string][]*indexed)}
		index[len(tmpl)] = lb
	}
	// Empty templates and wildcard-first templates have no usable first
	// token; both live in the always-scanned list.
	if len(tmpl) == 0 || tmpl[0] == Wildcard {
		lb.wildFirst = append(lb.wildFirst, c)
	} else {
		lb.byFirst[tmpl[0]] = append(lb.byFirst[tmpl[0]], c)
	}
}

// NewMatcher builds a matcher over model using the parser's preprocessing
// and options. The model is retained by reference but never modified:
// temporary templates live in the matcher's own overlay (use
// SnapshotModel to obtain a model that includes them).
func (p *Parser) NewMatcher(model *Model) (*Matcher, error) {
	return p.NewMatcherFrom(model, nil)
}

// NewMatcherFrom builds a matcher over model that INHERITS prev's
// temporary overlay (prev may be nil). This is the model-swap path: the
// overlay object is shared, then pruned of templates the new model
// absorbed, so a Match racing the swap on the old matcher still
// registers a temporary the new matcher resolves, and every stored
// temporary ID keeps resolving through NodeByID/TemplateAt.
func (p *Parser) NewMatcherFrom(model *Model, prev *Matcher) (*Matcher, error) {
	if model == nil || model.Len() == 0 {
		return nil, ErrEmptyModel
	}
	m := &Matcher{
		parser: p,
		model:  model,
		index:  make(map[int]*lenBucket),
	}
	if prev != nil {
		m.tmp = prev.tmp
		m.tmp.pruneAbsorbed(model)
	} else {
		m.tmp = newTempOverlay()
	}
	// Candidate order: saturation descending, then depth descending
	// (more precise first among equals), then ID for determinism.
	nodes := make([]*Node, 0, model.Len())
	for _, n := range model.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Saturation != nodes[j].Saturation {
			return nodes[i].Saturation > nodes[j].Saturation
		}
		if nodes[i].Depth != nodes[j].Depth {
			return nodes[i].Depth > nodes[j].Depth
		}
		return nodes[i].ID < nodes[j].ID
	})
	m.linear = make([]*indexed, len(nodes))
	for i, n := range nodes {
		m.linear[i] = newIndexed(n, i)
		insertBucket(m.index, m.linear[i])
	}
	return m, nil
}

// Model returns the trained model the matcher was built over. It does not
// include temporary templates; see SnapshotModel.
func (m *Matcher) Model() *Model { return m.model }

// Match parses one raw line: preprocess, match against templates, and — on
// a miss — insert the log itself as a temporary template (§3, Online
// Matching).
func (m *Matcher) Match(line string) MatchResult {
	tokens := m.parser.PreprocessLine(line)
	return m.MatchTokens(tokens)
}

// MatchTokens matches an already-preprocessed token sequence.
func (m *Matcher) MatchTokens(tokens []string) MatchResult {
	// Trained index first: immutable, so no lock at all.
	linearMatch := m.parser.opts.LinearMatch
	if c := lookupIn(m.index, m.linear, tokens, linearMatch); c != nil {
		return MatchResult{NodeID: c.node.ID, Template: c.text}
	}

	o := m.tmp
	o.mu.RLock()
	c := lookupIn(o.index, o.linear, tokens, linearMatch)
	o.mu.RUnlock()
	if c != nil {
		return MatchResult{NodeID: c.node.ID, Template: c.text}
	}

	o.mu.Lock()
	defer o.mu.Unlock()
	// Re-check: another goroutine may have inserted the same template.
	if c := lookupIn(o.index, o.linear, tokens, linearMatch); c != nil {
		return MatchResult{NodeID: c.node.ID, Template: c.text}
	}
	c = o.insertLocked(tokens, m.model)
	return MatchResult{NodeID: c.node.ID, Template: c.text, New: true}
}

// lookupIn returns the highest-priority matching candidate from one
// index, or nil. Safe without a lock when the index is immutable; overlay
// callers must hold mu (read or write).
func lookupIn(index map[int]*lenBucket, linear []*indexed, tokens []string, linearMatch bool) *indexed {
	if linearMatch {
		for _, c := range linear {
			if templateMatches(c.node.Template, tokens) {
				return c
			}
		}
		return nil
	}
	lb := index[len(tokens)]
	if lb == nil {
		return nil
	}
	var exact []*indexed
	if len(tokens) > 0 {
		exact = lb.byFirst[tokens[0]]
	}
	wild := lb.wildFirst
	// Merge the two priority-sorted candidate lists.
	i, j := 0, 0
	for i < len(exact) || j < len(wild) {
		var c *indexed
		switch {
		case i >= len(exact):
			c, j = wild[j], j+1
		case j >= len(wild):
			c, i = exact[i], i+1
		case exact[i].rank < wild[j].rank:
			c, i = exact[i], i+1
		default:
			c, j = wild[j], j+1
		}
		if templateMatches(c.node.Template, tokens) {
			return c
		}
	}
	return nil
}

// insertLocked adds tokens as a temporary singleton template. The lookups
// that precede insertion already tried every node — roots included — so
// no existing subtree covers this log and the temporary stands alone,
// exactly the paper's "insert it into the clustering tree as an
// individual node". The next training cycle re-learns it properly
// (TrainMerge drops temporaries and forwards their IDs). The trained
// model is NOT touched. An ID already held by the overlay, by model's
// nodes or by its aliases is taken: a holder of this same template would
// have matched before insertion, so any holder is a different template.
func (o *tempOverlay) insertLocked(tokens []string, model *Model) *indexed {
	tmpl := make([]string, len(tokens))
	copy(tmpl, tokens)
	id := temporaryID(tmpl, func(id uint64) bool {
		_, inOverlay := o.byID[id]
		_, inNodes := model.Nodes[id]
		_, aliased := model.Aliases[id]
		return inOverlay || inNodes || aliased
	})
	n := &Node{
		ID:         id,
		Parent:     NoParent,
		Template:   tmpl,
		Saturation: 1,
		Count:      1,
		Weight:     1,
		Temporary:  true,
	}
	c := newIndexed(n, len(o.linear))
	o.linear = append(o.linear, c)
	o.byID[n.ID] = n
	insertBucket(o.index, c)
	return c
}

// pruneAbsorbed drops overlay entries the new model now covers (as live
// nodes or alias-forwarded temporaries), keeping survivors resolvable.
func (o *tempOverlay) pruneAbsorbed(model *Model) {
	o.mu.Lock()
	defer o.mu.Unlock()
	kept := o.linear[:0]
	o.byID = make(map[uint64]*Node)
	o.index = make(map[int]*lenBucket)
	for _, c := range o.linear {
		if _, ok := model.Nodes[model.Resolve(c.node.ID)]; ok {
			continue
		}
		c.rank = len(kept)
		kept = append(kept, c)
		o.byID[c.node.ID] = c.node
		insertBucket(o.index, c)
	}
	o.linear = kept
}

// NodeByID returns the node for id — trained or temporary, following
// alias forwarding — or nil when the matcher has never seen it.
func (m *Matcher) NodeByID(id uint64) *Node {
	if n, ok := m.model.Nodes[m.model.Resolve(id)]; ok {
		return n
	}
	m.tmp.mu.RLock()
	defer m.tmp.mu.RUnlock()
	return m.tmp.byID[id]
}

// TemplateAt is Model.TemplateAt extended over temporary templates: for a
// trained (or aliased) ID it walks toward the root for the coarsest
// ancestor still meeting threshold; a temporary ID resolves to the
// temporary node itself (temporaries are roots with saturation 1).
func (m *Matcher) TemplateAt(id uint64, threshold float64) (*Node, error) {
	if _, ok := m.model.Nodes[m.model.Resolve(id)]; ok {
		return m.model.TemplateAt(id, threshold)
	}
	m.tmp.mu.RLock()
	n, ok := m.tmp.byID[id]
	m.tmp.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: node %d not in model", id)
	}
	return n, nil
}

// TemporaryCount returns how many temporary templates the overlay holds.
func (m *Matcher) TemporaryCount() int {
	m.tmp.mu.RLock()
	defer m.tmp.mu.RUnlock()
	return len(m.tmp.linear)
}

// Temporaries returns the temporary nodes in insertion order. The nodes
// are immutable once inserted; the slice is a copy.
func (m *Matcher) Temporaries() []*Node {
	m.tmp.mu.RLock()
	defer m.tmp.mu.RUnlock()
	out := make([]*Node, len(m.tmp.linear))
	for i, c := range m.tmp.linear {
		out[i] = c.node
	}
	return out
}

// SnapshotModel returns a model combining the trained nodes with every
// temporary inserted so far — the "prev" input for the next TrainMerge
// cycle, which drops the temporaries and forwards their IDs. Trained
// nodes are shared by pointer (both sides treat them as read-only;
// MergeModels clones before mutating). Its NextID is the trained
// model's: temporaries inserted while the cycle runs take IDs in their
// own band, so they cannot meet the IDs the cycle allocates.
func (m *Matcher) SnapshotModel() *Model {
	m.tmp.mu.RLock()
	defer m.tmp.mu.RUnlock()
	out := NewModel()
	out.NextID = m.model.NextID
	for id, to := range m.model.Aliases {
		out.Aliases[id] = to
	}
	for id, n := range m.model.Nodes {
		out.Nodes[id] = n
	}
	for _, c := range m.tmp.linear {
		out.Nodes[c.node.ID] = c.node
	}
	out.reindex()
	return out
}

// MatchBatch matches lines on up to the parser's Parallelism workers and
// returns one result per line. Duplicate lines — the dominant case in
// real streams (§4.1.3, Fig. 4) — are preprocessed and matched once and
// the result fanned out, the same deduplication lever the training
// pipeline uses; it is the largest factor in the paper's efficiency
// ablation (Fig. 9).
func (m *Matcher) MatchBatch(lines []string) []MatchResult {
	out := make([]MatchResult, len(lines))
	// Collapse to distinct lines.
	firstAt := make(map[string]int, len(lines)/4+1)
	var distinct []string
	ref := make([]int, len(lines))
	for i, l := range lines {
		d, ok := firstAt[l]
		if !ok {
			d = len(distinct)
			firstAt[l] = d
			distinct = append(distinct, l)
		}
		ref[i] = d
	}
	results := make([]MatchResult, len(distinct))
	m.parser.forEachChunk(len(distinct), func(lo, hi int) {
		// One token buffer per worker, reused across its lines: the
		// preprocessing of a chunk allocates no per-line slices.
		// MatchTokens copies tokens before retaining them, so reuse is
		// safe.
		var buf []string
		for i := lo; i < hi; i++ {
			buf = m.parser.PreprocessLineAppend(buf[:0], distinct[i])
			results[i] = m.MatchTokens(buf)
		}
	})
	for i := range lines {
		out[i] = results[ref[i]]
	}
	return out
}

// templateMatches reports whether tokens fit the template: equal length,
// and each template position either equals the log token or is the
// wildcard. Lengths must be pre-checked equal by the caller's bucketing;
// the check here keeps the linear path safe too.
func templateMatches(template, tokens []string) bool {
	if len(template) != len(tokens) {
		return false
	}
	for i, t := range template {
		if t != Wildcard && t != tokens[i] {
			return false
		}
	}
	return true
}
