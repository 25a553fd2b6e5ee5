package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Click elements export read and write handlers — named attributes the
// user inspects or pokes at run time (/proc/click in the kernel
// driver). Elements implement HandlerProvider to publish them; the
// Router routes "element.handler" paths.

// Handler is one named element attribute.
type Handler struct {
	Name string
	// Read returns the handler's value; nil for write-only handlers.
	Read func() string
	// Write sets the handler; nil for read-only handlers.
	Write func(value string) error
}

// HandlerProvider is implemented by elements that export handlers.
type HandlerProvider interface {
	Handlers() []Handler
}

// Element names are not flat identifiers: combine emits names such as
// "link@a/eth0@b/eth1" and tenant namespacing prefixes "tenant/". The
// config language never produces a name containing '.', but the graph
// API does not forbid it, and a path built by naive concatenation is
// then ambiguous. The resolution rule is longest match: the element
// name is the longest prefix of the path that names a live element and
// is followed by '.'. Handler names never contain '.' or '/', so for
// every name the language can produce this degenerates to the old
// split-at-last-dot rule. Contexts that compose paths blindly (tools,
// the management API) escape the element name first — EscapeElementName
// maps '%' to %25, '.' to %2E and '/' to %2F — and findHandler also
// tries the unescaped form of each candidate prefix, so escaped paths
// resolve even when the raw name happens to collide with another
// element.

// EscapeElementName escapes an element name for embedding in a handler
// path or URL path segment: '%' → %25, '.' → %2E, '/' → %2F. Names
// produced by the config language pass through unchanged except for
// '/' (which is legal in identifiers and harmless in dot-paths, so
// HandlerPath keeps it raw).
func EscapeElementName(name string) string {
	if !strings.ContainsAny(name, "%./") {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 4)
	for i := 0; i < len(name); i++ {
		switch c := name[i]; c {
		case '%':
			b.WriteString("%25")
		case '.':
			b.WriteString("%2E")
		case '/':
			b.WriteString("%2F")
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// UnescapeElementName reverses EscapeElementName. It reports ok=false
// when s contains a '%' not followed by two hex digits.
func UnescapeElementName(s string) (string, bool) {
	if !strings.ContainsRune(s, '%') {
		return s, true
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		if i+2 >= len(s) {
			return "", false
		}
		hi, ok1 := unhex(s[i+1])
		lo, ok2 := unhex(s[i+2])
		if !ok1 || !ok2 {
			return "", false
		}
		b.WriteByte(hi<<4 | lo)
		i += 2
	}
	return b.String(), true
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// HandlerPath composes an unambiguous "element.handler" path. Element
// names containing '.' or '%' are escaped; everything else (including
// combine's '/'- and '@'-bearing link names) passes through raw, so
// paths for language-produced names look exactly like before.
func HandlerPath(element, handler string) string {
	if strings.ContainsAny(element, ".%") {
		element = EscapeElementName(element)
	}
	return element + "." + handler
}

// ReadHandler reads "element.handler" (e.g. "q.length"). Every element
// also gets implicit "class" and "config" handlers.
func (rt *Router) ReadHandler(path string) (string, error) {
	h, err := rt.findHandler(path)
	if err != nil {
		return "", err
	}
	if h.Read == nil {
		return "", fmt.Errorf("core: handler %q is write-only", path)
	}
	return h.Read(), nil
}

// WriteHandler writes "element.handler value".
func (rt *Router) WriteHandler(path, value string) error {
	h, err := rt.findHandler(path)
	if err != nil {
		return err
	}
	if h.Write == nil {
		return fmt.Errorf("core: handler %q is read-only", path)
	}
	return h.Write(value)
}

// HandlerNames lists the handlers an element exports, sorted.
func (rt *Router) HandlerNames(element string) ([]string, error) {
	e := rt.Find(element)
	if e == nil {
		return nil, fmt.Errorf("core: no element %q", element)
	}
	names := []string{"class", "config", "name"}
	for _, h := range ownHandlers(e) {
		names = append(names, h.Name)
	}
	for _, n := range statsHandlerNames {
		if !slices.Contains(names, n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// findHandler resolves a handler path by longest match: scanning dots
// right to left, the element name is the longest prefix naming a live
// element (tried raw, then %-unescaped), and the rest is the handler
// name. Resolution is deterministic — the longest matching element
// wins even if it lacks the requested handler.
func (rt *Router) findHandler(path string) (Handler, error) {
	last := strings.LastIndexByte(path, '.')
	if last <= 0 || last == len(path)-1 {
		return Handler{}, fmt.Errorf("core: bad handler path %q (want element.handler)", path)
	}
	for dot := last; dot > 0; dot = strings.LastIndexByte(path[:dot], '.') {
		name, hName := path[:dot], path[dot+1:]
		e := rt.Find(name)
		if e == nil && strings.ContainsRune(name, '%') {
			if un, ok := UnescapeElementName(name); ok {
				e = rt.Find(un)
			}
		}
		if e == nil {
			continue
		}
		if h, ok := rt.elementHandler(e, hName); ok {
			return h, nil
		}
		return Handler{}, fmt.Errorf("core: element %q has no handler %q", e.base().name, hName)
	}
	return Handler{}, fmt.Errorf("core: no element %q", path[:last])
}

// elementHandler looks up one handler on a resolved element: implicit
// class/name/config, then the element's own providers, then the
// implicit telemetry counters.
func (rt *Router) elementHandler(e Element, hName string) (Handler, bool) {
	switch hName {
	case "class":
		return Handler{Name: "class", Read: func() string { return e.base().class }}, true
	case "name":
		return Handler{Name: "name", Read: func() string { return e.base().name }}, true
	case "config":
		idx := rt.Graph.FindElement(e.base().name)
		return Handler{Name: "config", Read: func() string {
			if idx < 0 {
				return ""
			}
			return rt.Graph.Element(idx).Config
		}}, true
	}
	for _, h := range ownHandlers(e) {
		if h.Name == hName {
			return h, true
		}
	}
	// Implicit telemetry handlers, after the provider loop so an
	// element's own counter of the same name (e.g. Queue's drops) wins.
	if read, ok := statsHandler(e.base().Stats(), hName); ok {
		return Handler{Name: hName, Read: read}, true
	}
	return Handler{}, false
}

// ownHandlers returns e's HandlerProvider list, made once when its
// build router was assembled.
func ownHandlers(e Element) []Handler {
	b := e.base()
	return b.router.handlers[b]
}

// statsHandlerNames are the implicit telemetry read handlers every
// element exports.
var statsHandlerNames = []string{
	"packets_in", "bytes_in", "packets_out", "bytes_out", "drops", "cycles",
}

func statsHandler(s *ElemStats, name string) (func() string, bool) {
	var get func() int64
	switch name {
	case "packets_in":
		get = s.PacketsIn
	case "bytes_in":
		get = s.BytesIn
	case "packets_out":
		get = s.PacketsOut
	case "bytes_out":
		get = s.BytesOut
	case "drops":
		get = s.Drops
	case "cycles":
		get = s.Cycles
	default:
		return nil, false
	}
	return func() string { return fmt.Sprintf("%d", get()) }, true
}
