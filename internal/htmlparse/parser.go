package htmlparse

import (
	"strings"

	"mse/internal/dom"
)

// The tag-classification predicates below are string switches rather than
// map[string]bool sets: the compiler lowers a string switch to a
// length-bucketed compare tree, so the per-tag classification on the parse
// hot path costs a couple of comparisons instead of a map hash + probe.
// The sets are identical to the former map literals.

// isVoidElement reports tags that never have children; a start tag is a
// complete element.
func isVoidElement(tag string) bool {
	switch tag {
	case "area", "base", "br", "col", "embed", "hr", "img", "input", "link",
		"meta", "param", "source", "track", "wbr":
		return true
	}
	return false
}

// hasAutoClose reports whether a start tag implicitly closes some set of
// open tags (see autoCloses).  This captures the tag-soup recovery
// browsers apply to the table/list/paragraph structures that dominate
// 2006-era result pages.
func hasAutoClose(tag string) bool {
	switch tag {
	case "p", "li", "dt", "dd", "option", "optgroup", "tr", "td", "th",
		"thead", "tbody", "tfoot", "colgroup":
		return true
	}
	return false
}

// autoCloses reports whether a starting tag implicitly closes an open one.
func autoCloses(tag, open string) bool {
	switch tag {
	case "p":
		return open == "p"
	case "li":
		return open == "li"
	case "dt", "dd":
		return open == "dt" || open == "dd"
	case "option":
		return open == "option"
	case "optgroup":
		return open == "option" || open == "optgroup"
	case "tr":
		return open == "tr" || open == "td" || open == "th"
	case "td", "th":
		return open == "td" || open == "th"
	case "thead", "tbody", "tfoot":
		switch open {
		case "thead", "tbody", "tfoot", "tr", "td", "th":
			return true
		}
	case "colgroup":
		return open == "colgroup"
	}
	return false
}

// isBarrier reports whether an open tag stops tag's implicit-close scan:
// an implicit close never crosses one of these container tags.  The
// per-tag boundary sets exist because a <td> must be able to close a
// previous <td> but its scan must not escape the enclosing <tr>;
// similarly <li> must not escape <ul>.
func isBarrier(tag, open string) bool {
	switch tag {
	case "td", "th":
		switch open {
		case "tr", "table", "body", "html", "#document":
			return true
		}
	case "tr":
		switch open {
		case "thead", "tbody", "tfoot", "table", "body", "html", "#document":
			return true
		}
	case "li":
		switch open {
		case "ul", "ol", "body", "html", "#document":
			return true
		}
	case "dt", "dd":
		switch open {
		case "dl", "body", "html", "#document":
			return true
		}
	default:
		switch open {
		case "table", "td", "th", "body", "html", "#document", "div", "ul",
			"ol", "dl", "select":
			return true
		}
	}
	return false
}

// parser builds a dom tree from tokens.
type parser struct {
	doc   *dom.Node
	stack []*dom.Node // open elements; stack[0] is the document
	arena *dom.Arena  // node/attr allocator
}

// Parse parses HTML source into a DOM tree rooted at a DocumentNode.  The
// result always contains an <html> element with <head> and <body>
// children; body-level content in the source is placed under <body>.
// Parse never fails: like a browser, it recovers from malformed markup.
//
// Nodes are batch-allocated from a throwaway arena (the garbage collector
// reclaims them with the tree); use ParsePooled on the per-request serving
// path where the tree's death is an explicit event.
func Parse(src string) *dom.Node {
	doc, _ := parseWith(src, dom.NewArena())
	return doc
}

// ParsePooled parses like Parse but allocates the tree from a pooled
// arena, which the caller must Release once nothing can reference the
// returned tree anymore (dom.Arena documents the soundness rule).
func ParsePooled(src string) (*dom.Node, *dom.Arena) {
	return parseWith(src, dom.AcquireArena())
}

func parseWith(src string, arena *dom.Arena) (*dom.Node, *dom.Arena) {
	// A panic mid-parse must not leak the pooled arena: nothing can
	// reference the half-built tree after unwinding, so recycle it before
	// re-panicking.
	defer func() {
		if r := recover(); r != nil {
			arena.Release()
			panic(r)
		}
	}()
	p := &parser{arena: arena}
	p.doc = p.newNode(dom.DocumentNode)
	p.stack = []*dom.Node{p.doc}
	z := newTokenizer(src)
	for {
		tok := z.next()
		if tok.typ == eofToken {
			break
		}
		p.consume(tok)
	}
	p.ensureStructure()
	return p.doc, arena
}

// newNode allocates a node of the given type from the parse arena.
func (p *parser) newNode(t dom.NodeType) *dom.Node {
	n := p.arena.Node()
	n.Type = t
	return n
}

// top returns the innermost open element.
func (p *parser) top() *dom.Node {
	return p.stack[len(p.stack)-1]
}

func (p *parser) consume(tok token) {
	switch tok.typ {
	case doctypeToken:
		d := p.newNode(dom.DoctypeNode)
		d.Data = tok.data
		p.doc.AppendChild(d)
	case commentToken:
		c := p.newNode(dom.CommentNode)
		c.Data = tok.data
		p.top().AppendChild(c)
	case textToken:
		p.addText(tok.data)
	case startTagToken, selfClosingTagToken:
		p.startTag(tok)
	case endTagToken:
		p.endTag(tok.data)
	}
}

func (p *parser) addText(s string) {
	if strings.TrimSpace(s) == "" {
		// Whitespace-only runs are dropped; they carry no content and would
		// otherwise pollute the content-line model.
		return
	}
	switch p.top().Tag {
	case "title", "style", "script", "textarea", "xmp":
		// Raw-text content stays with its element even inside <head>.
	default:
		p.ensureBody()
	}
	parent := p.top()
	// Text directly inside <table>, <tbody>, or <tr> is foster-parented
	// into a cell-free container per browser behaviour; for extraction
	// purposes placing it in an implied row/cell keeps document order.
	switch parent.Tag {
	case "table", "thead", "tbody", "tfoot", "tr":
		p.impliedCell()
		parent = p.top()
	}
	if parent.LastChild != nil && parent.LastChild.Type == dom.TextNode {
		parent.LastChild.Data += s
		return
	}
	t := p.newNode(dom.TextNode)
	t.Data = s
	parent.AppendChild(t)
}

// impliedCell opens the implied tr/td needed to place phrasing content that
// appears directly inside table structure.
func (p *parser) impliedCell() {
	switch p.top().Tag {
	case "table":
		p.push("tbody", nil)
		p.push("tr", nil)
		p.push("td", nil)
	case "thead", "tbody", "tfoot":
		p.push("tr", nil)
		p.push("td", nil)
	case "tr":
		p.push("td", nil)
	}
}

func (p *parser) startTag(tok token) {
	name := tok.data
	switch name {
	case "html":
		// Adopt attributes onto the (single) html element.
		h := p.htmlElement()
		for _, a := range tok.attrs {
			if _, ok := h.Attr(a.key); !ok {
				h.Attrs = append(h.Attrs, dom.Attr{Key: a.key, Val: a.val})
			}
		}
		return
	case "head":
		p.ensureHead()
		return
	case "body":
		p.ensureBody()
		b := p.bodyElement()
		for _, a := range tok.attrs {
			if _, ok := b.Attr(a.key); !ok {
				b.Attrs = append(b.Attrs, dom.Attr{Key: a.key, Val: a.val})
			}
		}
		return
	}
	if isHeadOnly(name) {
		p.ensureHead()
	} else {
		p.ensureBody()
	}
	// Implicit closes (e.g. <li> closes an open <li>).
	if hasAutoClose(name) {
		p.implicitClose(name)
	}
	// Structural implications for table parts.
	switch name {
	case "tr":
		if p.top().Tag == "table" {
			p.push("tbody", nil)
		}
	case "td", "th":
		switch p.top().Tag {
		case "table":
			p.push("tbody", nil)
			p.push("tr", nil)
		case "thead", "tbody", "tfoot":
			p.push("tr", nil)
		}
	}
	attrs := p.convertAttrs(tok.attrs)
	if isVoidElement(name) || tok.typ == selfClosingTagToken {
		n := p.newNode(dom.ElementNode)
		n.Tag = name
		n.Attrs = attrs
		p.top().AppendChild(n)
		return
	}
	p.push(name, attrs)
}

// implicitClose pops open elements that the starting tag name implicitly
// closes, stopping at any barrier tag.  Formatting elements and open <p>
// elements in the way are popped as well (they have implied end tags in
// this position).
func (p *parser) implicitClose(name string) {
	for len(p.stack) > 1 {
		label := p.top().Label()
		if isBarrier(name, label) {
			return
		}
		if autoCloses(name, label) || isFormatting(label) || label == "p" {
			p.stack = p.stack[:len(p.stack)-1]
			continue
		}
		// A structural element that is neither closed nor a barrier stops
		// the scan.
		return
	}
}

// isFormatting reports whether an open tag may be implicitly popped while
// searching for an auto-close target (inline formatting elements).
func isFormatting(tag string) bool {
	switch tag {
	case "a", "b", "i", "u", "em", "strong", "font", "span", "small", "big",
		"s", "strike", "tt", "code", "sub", "sup", "abbr", "cite", "label", "nobr":
		return true
	}
	return false
}

// maxOpenDepth caps the open-element stack, as browsers do.  Beyond the
// cap a new element is appended flat at the cap level instead of deepening
// the tree: the 8 MB request-body budget admits ~1.6 million nested divs,
// and an unbounded tree forces the downstream recursive consumers (the
// render walk, dom.Walk, path extraction) to grow hundreds of megabytes of
// goroutine stack per request.  Real result pages nest a few dozen levels.
const maxOpenDepth = 512

func (p *parser) push(tag string, attrs []dom.Attr) {
	n := p.newNode(dom.ElementNode)
	n.Tag = tag
	n.Attrs = attrs
	p.top().AppendChild(n)
	if len(p.stack) >= maxOpenDepth {
		// At the cap the element still exists (flat), but children that
		// follow attach to the capped ancestor, bounding tree depth.
		return
	}
	p.stack = append(p.stack, n)
}

func (p *parser) endTag(name string) {
	if isVoidElement(name) {
		return // </br> and friends are ignored
	}
	// Find the matching open element.
	for i := len(p.stack) - 1; i >= 1; i-- {
		if p.stack[i].Tag == name {
			p.stack = p.stack[:i]
			return
		}
		// Do not let a stray end tag close structural containers.
		if p.stack[i].Tag == "body" || p.stack[i].Tag == "html" {
			return
		}
	}
	// No matching open tag: ignore, as browsers do.
}

// convertAttrs copies the tokenizer's transient attribute buffer into an
// arena-backed dom.Attr slice owned by the node.
func (p *parser) convertAttrs(in []attr) []dom.Attr {
	if len(in) == 0 {
		return nil
	}
	out := p.arena.Attrs(len(in))
	for i, a := range in {
		out[i] = dom.Attr{Key: a.key, Val: a.val}
	}
	return out
}

func isHeadOnly(tag string) bool {
	switch tag {
	case "title", "meta", "link", "base", "style":
		return true
	}
	return false
}

// htmlElement returns the page's <html> element, creating it if needed.
func (p *parser) htmlElement() *dom.Node {
	for c := p.doc.FirstChild; c != nil; c = c.NextSibling {
		if c.Type == dom.ElementNode && c.Tag == "html" {
			return c
		}
	}
	h := p.newNode(dom.ElementNode)
	h.Tag = "html"
	p.doc.AppendChild(h)
	if len(p.stack) == 1 {
		p.stack = append(p.stack, h)
	}
	return h
}

func (p *parser) headElement() *dom.Node {
	h := p.htmlElement()
	for c := h.FirstChild; c != nil; c = c.NextSibling {
		if c.Type == dom.ElementNode && c.Tag == "head" {
			return c
		}
	}
	head := p.newNode(dom.ElementNode)
	head.Tag = "head"
	h.AppendChild(head)
	return head
}

func (p *parser) bodyElement() *dom.Node {
	h := p.htmlElement()
	for c := h.FirstChild; c != nil; c = c.NextSibling {
		if c.Type == dom.ElementNode && c.Tag == "body" {
			return c
		}
	}
	body := p.newNode(dom.ElementNode)
	body.Tag = "body"
	h.AppendChild(body)
	return body
}

// ensureHead makes the head element current when only document/html are
// open.
func (p *parser) ensureHead() {
	if len(p.stack) > 2 {
		return // already inside some container
	}
	head := p.headElement()
	h := p.htmlElement()
	p.stack = []*dom.Node{p.doc, h, head}
}

// ensureBody makes sure body exists and is the innermost scope when the
// parser is still at document/html/head level.
func (p *parser) ensureBody() {
	// If we are inside head (or nothing), switch to body.
	cur := p.top()
	switch cur.Label() {
	case "#document", "html", "head", "title", "style", "script", "meta", "link", "base":
		body := p.bodyElement()
		h := p.htmlElement()
		p.stack = []*dom.Node{p.doc, h, body}
	}
}

// ensureStructure guarantees the html/head/body skeleton exists even for
// empty input.
func (p *parser) ensureStructure() {
	p.headElement()
	p.bodyElement()
	// head must precede body; reorder if the source created body first.
	h := p.htmlElement()
	var head, body *dom.Node
	for c := h.FirstChild; c != nil; c = c.NextSibling {
		switch c.Tag {
		case "head":
			head = c
		case "body":
			body = c
		}
	}
	if head != nil && body != nil && body.NextSibling != nil {
		// body not last among head/body: only fix the head-after-body case.
		if head.PrevSibling == body {
			h.RemoveChild(head)
			// Re-insert head before body.
			reinsertBefore(h, head, body)
		}
	}
}

// reinsertBefore inserts n as a child of parent immediately before ref.
func reinsertBefore(parent, n, ref *dom.Node) {
	n.Parent = parent
	n.NextSibling = ref
	n.PrevSibling = ref.PrevSibling
	if ref.PrevSibling != nil {
		ref.PrevSibling.NextSibling = n
	} else {
		parent.FirstChild = n
	}
	ref.PrevSibling = n
}
