package opt

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/lang"
)

// Combine and Uncombine implement click-combine/click-uncombine (§7.2):
// building one configuration that encapsulates several routers plus the
// links between them, so cross-router analyses and optimizations (like
// ARP elimination) can run; and splitting such a configuration back
// into its component routers.

// RouterInput names one router going into a combination.
type RouterInput struct {
	Name   string // prefix for element names ("a")
	Config *graph.Router
}

// Link describes one inter-router connection: fromRouter's
// ToDevice(fromDev) feeds toRouter's PollDevice/FromDevice(toDev).
type Link struct {
	FromRouter string
	FromDev    string
	ToRouter   string
	ToDev      string
}

// ParseLink parses "a.eth0 -> b.eth1".
func ParseLink(s string) (Link, error) {
	parts := strings.Split(s, "->")
	if len(parts) != 2 {
		return Link{}, fmt.Errorf("opt: bad link %q (want \"a.dev -> b.dev\")", s)
	}
	parse := func(side string) (string, string, error) {
		side = strings.TrimSpace(side)
		dot := strings.IndexByte(side, '.')
		if dot <= 0 || dot == len(side)-1 {
			return "", "", fmt.Errorf("opt: bad link endpoint %q", side)
		}
		return side[:dot], side[dot+1:], nil
	}
	fr, fd, err := parse(parts[0])
	if err != nil {
		return Link{}, err
	}
	tr, td, err := parse(parts[1])
	if err != nil {
		return Link{}, err
	}
	return Link{FromRouter: fr, FromDev: fd, ToRouter: tr, ToDev: td}, nil
}

// Combine merges routers into one configuration. Element names gain a
// "router/" prefix; each link's ToDevice and PollDevice pair is
// replaced by a RouterLink element named "router.dev-router.dev". A
// combine manifest is stored in the archive for Uncombine.
func Combine(routers []RouterInput, links []Link) (*graph.Router, error) {
	out := graph.New()
	for _, r := range routers {
		if strings.ContainsAny(r.Name, "/. \t") || r.Name == "" {
			return nil, fmt.Errorf("opt: bad router name %q", r.Name)
		}
		// Read the input in place: dead elements are skipped through
		// the remap (no connection touches one), so the output matches
		// combining a compacted clone.
		g := r.Config
		remap := make([]int, len(g.Elements))
		for i, e := range g.Elements {
			if g.Dead(i) {
				continue
			}
			idx, err := out.AddElement(r.Name+"/"+e.Name, e.Class, e.Config, e.Landmark)
			if err != nil {
				return nil, err
			}
			remap[i] = idx
		}
		for _, c := range g.Conns {
			out.Connect(remap[c.From], c.FromPort, remap[c.To], c.ToPort)
		}
		for _, req := range g.Requirements {
			out.Require(req)
		}
	}

	var manifest strings.Builder
	for _, r := range routers {
		fmt.Fprintf(&manifest, "router %s\n", r.Name)
	}

	for _, l := range links {
		toDev, err := findDeviceElement(out, l.FromRouter, "ToDevice", l.FromDev)
		if err != nil {
			return nil, err
		}
		pollDev, err := findDeviceElement(out, l.ToRouter, "PollDevice", l.ToDev)
		if err != nil {
			// FromDevice is an alias in this driver.
			pollDev, err = findDeviceElement(out, l.ToRouter, "FromDevice", l.ToDev)
			if err != nil {
				return nil, err
			}
		}
		// The link name must survive an Unparse/Parse round trip (the
		// combined configuration is written to disk and read back by
		// click-uncombine), so it may only use identifier characters —
		// letters, digits, '_', '@', and '/'. The "link@" prefix keeps it
		// from matching any "<router>/" element prefix during extraction.
		linkName := fmt.Sprintf("link@%s/%s@%s/%s", l.FromRouter, l.FromDev, l.ToRouter, l.ToDev)
		li := out.MustAddElement(linkName, "RouterLink", "", "click-combine")
		// ToDevice pulled from its upstream; the RouterLink takes that
		// place (push input? ToDevice input is pull). RouterLink is a
		// queue (h/l): it cannot replace a Queue->ToDevice pair
		// directly — instead it *absorbs* the upstream Queue: the
		// queue's inputs feed the link, and the link feeds what the
		// peer's PollDevice fed.
		for _, c := range out.ConnsTo(toDev) {
			up := c.From
			if out.Element(up).Class == "Queue" {
				for _, qc := range out.ConnsTo(up) {
					out.Connect(qc.From, qc.FromPort, li, 0)
				}
				out.RemoveElement(up)
				fmt.Fprintf(&manifest, "absorbedqueue %s %s\n", linkName, l.FromRouter)
			} else {
				out.Connect(up, c.FromPort, li, 0)
			}
		}
		for _, c := range out.ConnsFrom(pollDev) {
			out.Connect(li, 0, c.To, c.ToPort)
		}
		out.RemoveElement(toDev)
		out.RemoveElement(pollDev)
		fmt.Fprintf(&manifest, "link %s %s %s %s %s\n", linkName, l.FromRouter, l.FromDev, l.ToRouter, l.ToDev)
	}
	out.Archive["combine/manifest"] = []byte(manifest.String())
	out.Require("combine")
	attachReport(out, &PassReport{
		Pass:            "combine",
		RoutersCombined: len(routers),
		LinksReplaced:   len(links),
	})
	return out, nil
}

// findDeviceElement locates "<router>/<anything> :: <class>(dev)".
func findDeviceElement(g *graph.Router, router, class, dev string) (int, error) {
	for _, i := range g.LiveIndices() {
		e := g.Element(i)
		if !strings.HasPrefix(e.Name, router+"/") || e.Class != class {
			continue
		}
		args := lang.SplitConfig(e.Config)
		if len(args) >= 1 && strings.TrimSpace(args[0]) == dev {
			return i, nil
		}
	}
	return -1, fmt.Errorf("opt: no %s(%s) in router %q", class, dev, router)
}

// Uncombine extracts one router from a combined configuration: elements
// named "<name>/..." are kept (prefix stripped), and each RouterLink
// the router touches is turned back into the ToDevice or PollDevice it
// replaced (restoring the absorbed Queue on the sending side).
func Uncombine(combined *graph.Router, name string) (*graph.Router, error) {
	manifest, ok := combined.Archive["combine/manifest"]
	if !ok {
		return nil, fmt.Errorf("opt: configuration has no combine manifest")
	}
	type linkInfo struct {
		fromRouter, fromDev, toRouter, toDev string
		absorbed                             bool
	}
	linkOf := map[string]*linkInfo{}
	seenRouter := false
	for _, line := range strings.Split(strings.TrimSpace(string(manifest)), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "router":
			if len(fields) == 2 && fields[1] == name {
				seenRouter = true
			}
		case "link":
			if len(fields) != 6 {
				return nil, fmt.Errorf("opt: bad manifest line %q", line)
			}
			li := linkOf[fields[1]]
			if li == nil {
				li = &linkInfo{}
				linkOf[fields[1]] = li
			}
			li.fromRouter, li.fromDev, li.toRouter, li.toDev = fields[2], fields[3], fields[4], fields[5]
		case "absorbedqueue":
			if len(fields) != 3 {
				return nil, fmt.Errorf("opt: bad manifest line %q", line)
			}
			li := linkOf[fields[1]]
			if li == nil {
				li = &linkInfo{}
				linkOf[fields[1]] = li
			}
			li.absorbed = true
		}
	}
	if !seenRouter {
		return nil, fmt.Errorf("opt: combined configuration has no router %q", name)
	}

	out := graph.New()
	prefix := name + "/"
	newIdx := map[int]int{}
	for _, i := range combined.LiveIndices() {
		e := combined.Element(i)
		if !strings.HasPrefix(e.Name, prefix) {
			continue
		}
		idx, err := out.AddElement(strings.TrimPrefix(e.Name, prefix), e.Class, e.Config, e.Landmark)
		if err != nil {
			return nil, err
		}
		newIdx[i] = idx
	}
	for _, c := range combined.Conns {
		fi, fok := newIdx[c.From]
		ti, tok := newIdx[c.To]
		if fok && tok {
			out.Connect(fi, c.FromPort, ti, c.ToPort)
		}
	}

	// Restore device elements at the router's ends of each link.
	linkNames := make([]string, 0, len(linkOf))
	for ln := range linkOf {
		linkNames = append(linkNames, ln)
	}
	sort.Strings(linkNames)
	for _, ln := range linkNames {
		li := linkOf[ln]
		lidx := combined.FindElement(ln)
		if lidx < 0 {
			continue
		}
		if li.fromRouter == name {
			// This router sends into the link: rebuild Queue ->
			// ToDevice fed by whatever feeds the link from our side.
			td := out.MustAddElement("", "ToDevice", li.fromDev, "click-uncombine")
			feed := td
			if li.absorbed {
				q := out.MustAddElement("", "Queue", "", "click-uncombine")
				out.Connect(q, 0, td, 0)
				feed = q
			}
			for _, c := range combined.ConnsTo(lidx) {
				if fi, ok := newIdx[c.From]; ok {
					out.Connect(fi, c.FromPort, feed, 0)
				}
			}
		}
		if li.toRouter == name {
			pd := out.MustAddElement("", "PollDevice", li.toDev, "click-uncombine")
			for _, c := range combined.ConnsFrom(lidx) {
				if ti, ok := newIdx[c.To]; ok {
					out.Connect(pd, 0, ti, c.ToPort)
				}
			}
		}
	}
	for _, req := range combined.Requirements {
		if req != "combine" {
			out.Require(req)
		}
	}
	return out, nil
}
