// Package mining implements Section 5.4 of the MSE paper: mining the
// records of a dynamic section whose record structure is unknown.  The
// section's content (a tag forest) is partitioned at candidate tag-forest
// separators; every candidate partition's section cohesion (Formula 7) is
// computed and the partition with the highest cohesion wins.  Because the
// single-record partition is always among the candidates, the algorithm
// can extract even a lone record from a DS — the capability the paper
// highlights against prior work that needs two or more records.
package mining

import (
	"strings"

	"mse/internal/cancel"
	"mse/internal/dom"
	"mse/internal/layout"
	"mse/internal/sect"
	"mse/internal/visual"
)

// Options control record mining.
type Options struct {
	LineWeights   visual.LineWeights
	RecordWeights visual.RecordWeights
	// MaxGroup bounds the "every k roots" family of candidate partitions.
	MaxGroup int
	// Cancel, when non-nil, is polled once per scored partition, so a
	// canceled context aborts mining (and the granularity repairs built
	// on PartitionScore) between cohesion computations.
	// core.BuildWrapperCtx installs it; it never needs to be set by hand.
	Cancel *cancel.Token `json:"-"`
}

// DefaultOptions returns the defaults.
func DefaultOptions() Options {
	return Options{
		LineWeights:   visual.DefaultLineWeights(),
		RecordWeights: visual.DefaultRecordWeights(),
		MaxGroup:      6,
	}
}

// MineRecords partitions the lines [start, end) of a page into records and
// returns them in order.  The empty range yields nil.
func MineRecords(p *layout.Page, start, end int, opt Options) []visual.Block {
	if start >= end {
		return nil
	}
	parts := CandidatePartitions(p, start, end, opt)
	best := parts[0]
	bestScore := PartitionScore(p, best, start, end, opt)
	for _, part := range parts[1:] {
		if s := PartitionScore(p, part, start, end, opt); s > bestScore {
			best, bestScore = part, s
		}
	}
	return best
}

// PartitionScore is the section cohesion of a candidate partition
// (Formula 7), boosted when every record opens with the same content-line
// signature and that signature occurs nowhere else in the range — the
// record-first-line regularity ViNTs keys on.  The boost lets a two-record
// section with records of different lengths beat the single-record
// degenerate partition, whose cohesion is otherwise inflated by its zero
// inter-record distance.
func PartitionScore(p *layout.Page, part []visual.Block, start, end int, opt Options) float64 {
	opt.Cancel.Check()
	score := visual.SectionCohesion(part, opt.LineWeights, opt.RecordWeights)
	if len(part) >= 2 && uniformRecordStarts(p, part, start, end) {
		score *= 1.6
		// Search result records overwhelmingly open with their title
		// link; a partition aligned to link lines gets the extra nudge
		// that lets mixed-length records (one record with a snippet, the
		// next without) beat the glued alternative.
		switch p.Lines[part[0].Start].Type {
		case layout.LinkLine, layout.LinkTextLine, layout.ImageTextLine:
			score *= 1.3
		}
	}
	return score
}

// uniformRecordStarts reports whether all records start with one (type, x)
// line signature that appears exactly len(part) times in [start, end).
func uniformRecordStarts(p *layout.Page, part []visual.Block, start, end int) bool {
	type sig struct {
		t layout.LineType
		x int
	}
	first := sig{p.Lines[part[0].Start].Type, p.Lines[part[0].Start].X}
	for _, b := range part[1:] {
		if (sig{p.Lines[b.Start].Type, p.Lines[b.Start].X}) != first {
			return false
		}
	}
	count := 0
	for i := start; i < end; i++ {
		if (sig{p.Lines[i].Type, p.Lines[i].X}) == first {
			count++
		}
	}
	return count == len(part)
}

// Mine fills in the Records of a record-less section.
func Mine(s *sect.Section, opt Options) {
	s.Records = MineRecords(s.Page, s.Start, s.End, opt)
}

// CandidatePartitions enumerates the candidate record partitions of the
// line range.  Candidates come from tag-forest separators in the spirit of
// [29]:
//
//   - the whole range as a single record (always candidate 0);
//   - one record per minimal-forest root;
//   - for each distinct root signature (tag plus shallow structure),
//     records start at the roots with that signature;
//   - groups of k consecutive roots for small k (uniform k-row records);
//   - for ranges without usable forest structure, partitions at repeated
//     line signatures.
//
// All candidates respect line boundaries and jointly cover [start, end).
func CandidatePartitions(p *layout.Page, start, end int, opt Options) [][]visual.Block {
	whole := []visual.Block{{Page: p, Start: start, End: end}}
	parts := [][]visual.Block{whole}

	roots := ExpandedForest(p, start, end)
	type rootAt struct {
		node  *dom.Node
		start int
	}
	var ras []rootAt
	for _, r := range roots {
		first, _, ok := p.Span(r)
		if !ok {
			continue
		}
		// Roots sharing a line collapse onto the first one.
		if len(ras) == 0 || first > ras[len(ras)-1].start {
			ras = append(ras, rootAt{node: r, start: first})
		}
	}
	rootStarts := make([]int, len(ras))
	for i, ra := range ras {
		rootStarts[i] = ra.start
	}
	if len(rootStarts) > 0 {
		rootStarts[0] = start // ensure coverage from the first line
	}
	if len(rootStarts) >= 2 {
		// One record per forest root.
		parts = append(parts, partitionAt(p, start, end, rootStarts))
		// Split at roots sharing a structural signature.
		bySig := map[string][]int{}
		var sigOrder []string
		for i, ra := range ras {
			sig := RootSignature(ra.node)
			if _, ok := bySig[sig]; !ok {
				sigOrder = append(sigOrder, sig)
			}
			bySig[sig] = append(bySig[sig], rootStarts[i])
		}
		for _, sig := range sigOrder {
			starts := bySig[sig]
			if len(starts) >= 2 && len(starts) < len(rootStarts) {
				parts = append(parts, partitionAt(p, start, end, starts))
			}
		}
		// Uniform groups of k consecutive roots.
		maxK := opt.MaxGroup
		if maxK > len(rootStarts) {
			maxK = len(rootStarts)
		}
		for k := 2; k <= maxK; k++ {
			if len(rootStarts)%k != 0 {
				continue
			}
			var starts []int
			for i := 0; i < len(rootStarts); i += k {
				starts = append(starts, rootStarts[i])
			}
			if len(starts) >= 2 {
				parts = append(parts, partitionAt(p, start, end, starts))
			}
		}
	}
	// One level deeper: when records are pairwise wrapped in stray
	// containers (the paper's non-sibling pathology), the record roots
	// only appear among the containers' children.  Offer signature-based
	// partitions at that level too and let cohesion arbitrate.
	if len(roots) >= 2 {
		var deeper []*dom.Node
		for _, r := range roots {
			for c := r.FirstChild; c != nil; c = c.NextSibling {
				if _, _, ok := p.Span(c); ok {
					deeper = append(deeper, c)
				}
			}
		}
		if len(deeper) > len(roots) {
			bySig := map[string][]int{}
			var sigOrder []string
			lastStart := -1
			for _, d := range deeper {
				first, _, ok := p.Span(d)
				if !ok || first <= lastStart {
					continue
				}
				lastStart = first
				sig := RootSignature(d)
				if _, seen := bySig[sig]; !seen {
					sigOrder = append(sigOrder, sig)
				}
				bySig[sig] = append(bySig[sig], first)
			}
			for _, sig := range sigOrder {
				starts := bySig[sig]
				if len(starts) >= 2 {
					parts = append(parts, partitionAt(p, start, end, starts))
				}
			}
		}
	}
	// Line-signature candidates: for every (type, x) signature repeated in
	// the range, split at its occurrences (helps when the DOM gives one
	// flat root; the record first line need not be the range's first
	// line — any prefix is folded into the first block).
	for _, sigStarts := range lineSignatureStartSets(p, start, end) {
		parts = append(parts, partitionAt(p, start, end, sigStarts))
	}
	return parts
}

// ExpandedForest returns the minimal covering forest of [start, end),
// descending through sole-root levels so that a range wrapped in a single
// container still exposes its repeating children as candidate separators.
func ExpandedForest(p *layout.Page, start, end int) []*dom.Node {
	roots := p.Forest(start, end)
	for iter := 0; iter < 16 && len(roots) == 1; iter++ {
		var kids []*dom.Node
		for c := roots[0].FirstChild; c != nil; c = c.NextSibling {
			if _, _, ok := p.Span(c); ok {
				kids = append(kids, c)
			}
		}
		if len(kids) == 0 {
			break
		}
		roots = kids
	}
	return roots
}

// partitionAt cuts [start, end) at the given sorted, increasing line
// starts (the first start is clamped to start).
func partitionAt(p *layout.Page, start, end int, starts []int) []visual.Block {
	var out []visual.Block
	for i, s := range starts {
		if s < start {
			s = start
		}
		e := end
		if i+1 < len(starts) {
			e = starts[i+1]
		}
		if e > end {
			e = end
		}
		if s >= e {
			continue
		}
		out = append(out, visual.Block{Page: p, Start: s, End: e})
	}
	if len(out) == 0 {
		out = []visual.Block{{Page: p, Start: start, End: end}}
	}
	// Clamp first block to range start.
	out[0].Start = start
	return out
}

// RootSignature summarizes a root's two-level structure: its own tag, its
// children's tags and each child's children.  Roots with equal signatures
// are treated as repeating record separators (and stored in section
// wrappers as the seps component).  Two levels are needed to tell a
// title row (tr > td > a) from a snippet row (tr > td > #text).
func RootSignature(n *dom.Node) string {
	var sb strings.Builder
	sb.WriteString(n.Label())
	sb.WriteByte('(')
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		sb.WriteString(c.Label())
		sb.WriteByte('[')
		for g := c.FirstChild; g != nil; g = g.NextSibling {
			sb.WriteString(g.Label())
			sb.WriteByte(',')
		}
		sb.WriteByte(']')
	}
	sb.WriteByte(')')
	return sb.String()
}

// AppendRootSignature appends n's root signature to dst and returns the
// extended slice.  The bytes are exactly RootSignature(n); the compiled
// wrapper path uses it with a reused buffer to classify blocks without
// building a string per root.
func AppendRootSignature(dst []byte, n *dom.Node) []byte {
	dst = append(dst, n.Label()...)
	dst = append(dst, '(')
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		dst = append(dst, c.Label()...)
		dst = append(dst, '[')
		for g := c.FirstChild; g != nil; g = g.NextSibling {
			dst = append(dst, g.Label()...)
			dst = append(dst, ',')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, ')')
	return dst
}

// lineSignatureStartSets returns, for every (type, x) signature repeated
// at least twice within [start, end), the lines at which it occurs.  The
// sets are returned in order of each signature's first occurrence.
func lineSignatureStartSets(p *layout.Page, start, end int) [][]int {
	type sig struct {
		t layout.LineType
		x int
	}
	occ := map[sig][]int{}
	var order []sig
	for i := start; i < end; i++ {
		s := sig{p.Lines[i].Type, p.Lines[i].X}
		if _, ok := occ[s]; !ok {
			order = append(order, s)
		}
		occ[s] = append(occ[s], i)
	}
	var out [][]int
	for _, s := range order {
		if len(occ[s]) >= 2 && len(occ[s]) < end-start {
			out = append(out, occ[s])
		}
	}
	return out
}
