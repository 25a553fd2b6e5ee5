package graph

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// scanQueries answers the six port queries the way the adjacency index
// must, by scanning Conns.
type scanQueries struct{ r *Router }

func (s scanQueries) conns(keep func(Connection) bool) []Connection {
	var out []Connection
	for _, c := range s.r.Conns {
		if keep(c) {
			out = append(out, c)
		}
	}
	return out
}

func (s scanQueries) outputConns(i, p int) []Connection {
	return s.conns(func(c Connection) bool { return c.From == i && c.FromPort == p })
}

func (s scanQueries) inputConns(i, p int) []Connection {
	return s.conns(func(c Connection) bool { return c.To == i && c.ToPort == p })
}

func (s scanQueries) connsFrom(i int) []Connection {
	return s.conns(func(c Connection) bool { return c.From == i })
}

func (s scanQueries) connsTo(i int) []Connection {
	return s.conns(func(c Connection) bool { return c.To == i })
}

func (s scanQueries) nInputs(i int) int {
	n := 0
	for _, c := range s.connsTo(i) {
		n = max(n, c.ToPort+1)
	}
	return n
}

func (s scanQueries) nOutputs(i int) int {
	n := 0
	for _, c := range s.connsFrom(i) {
		n = max(n, c.FromPort+1)
	}
	return n
}

const editPorts = 3 // ports 0..2 are used by generated edits

// checkQueries compares all six queries against a scan of Conns for
// every element and port, order and nil-ness included.
func checkQueries(r *Router) error {
	s := scanQueries{r}
	for i := range r.Elements {
		if got, want := r.NInputs(i), s.nInputs(i); got != want {
			return fmt.Errorf("NInputs(%d) = %d, scan %d", i, got, want)
		}
		if got, want := r.NOutputs(i), s.nOutputs(i); got != want {
			return fmt.Errorf("NOutputs(%d) = %d, scan %d", i, got, want)
		}
		if got, want := r.ConnsFrom(i), s.connsFrom(i); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("ConnsFrom(%d) = %v, scan %v", i, got, want)
		}
		if got, want := r.ConnsTo(i), s.connsTo(i); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("ConnsTo(%d) = %v, scan %v", i, got, want)
		}
		for p := 0; p <= editPorts; p++ {
			if got, want := r.OutputConns(i, p), s.outputConns(i, p); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("OutputConns(%d, %d) = %v, scan %v", i, p, got, want)
			}
			if got, want := r.InputConns(i, p), s.inputConns(i, p); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("InputConns(%d, %d) = %v, scan %v", i, p, got, want)
			}
		}
	}
	return nil
}

// heldSlice is a query result a caller keeps across an edit, with a
// copy of what it held.
type heldSlice struct {
	query    string
	elem     int
	got, was []Connection
}

func holdQueries(r *Router) []heldSlice {
	var held []heldSlice
	hold := func(query string, i int, got []Connection) {
		held = append(held, heldSlice{query, i, got, append([]Connection(nil), got...)})
	}
	for i := range r.Elements {
		hold("ConnsFrom", i, r.ConnsFrom(i))
		hold("ConnsTo", i, r.ConnsTo(i))
		for p := 0; p < editPorts; p++ {
			hold("OutputConns", i, r.OutputConns(i, p))
			hold("InputConns", i, r.InputConns(i, p))
		}
	}
	return held
}

// graphEdits decodes data into a sequence of edits on a four-element
// graph, checking the index against a scan after every edit and every
// previously returned slice for writes. It returns the first failure.
func graphEdits(data []byte) error {
	r := New()
	for k := 0; k < 4; k++ {
		r.MustAddElement("", "E", "", "")
	}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	// pick returns a live element, or -1 if there is none.
	pick := func() int {
		live := r.LiveIndices()
		if len(live) == 0 {
			return -1
		}
		return live[next()%len(live)]
	}
	subs := 0
	for step := 0; len(data) > 0; step++ {
		held := holdQueries(r)
		var what string
		switch op := next() % 10; op {
		case 0:
			if len(r.Elements) < 16 {
				r.MustAddElement("", "E", "", "")
			}
			what = "AddElement"
		case 1:
			from, fp, to, tp := pick(), next()%editPorts, pick(), next()%editPorts
			if from >= 0 && to >= 0 {
				r.Connect(from, fp, to, tp)
			}
			what = fmt.Sprintf("Connect(%d, %d, %d, %d)", from, fp, to, tp)
		case 2:
			if len(r.Conns) > 0 {
				c := r.Conns[next()%len(r.Conns)]
				if next()%4 == 0 {
					c.ToPort = (c.ToPort + 1) % editPorts // usually absent
				}
				r.Disconnect(c.From, c.FromPort, c.To, c.ToPort)
				what = fmt.Sprintf("Disconnect(%v)", c)
			}
		case 3:
			i := pick()
			if i >= 0 {
				r.RemoveElement(i)
			}
			what = fmt.Sprintf("RemoveElement(%d)", i)
		case 4:
			idx := []int{pick(), pick()}
			if idx[0] >= 0 {
				r.RemoveElements(idx)
			}
			what = fmt.Sprintf("RemoveElements(%v)", idx)
		case 5:
			sub := New()
			a := sub.MustAddElement(fmt.Sprintf("sub%d/a", subs), "E", "", "")
			b := sub.MustAddElement(fmt.Sprintf("sub%d/b", subs), "E", "", "")
			sub.Connect(a, next()%editPorts, b, 0)
			sub.Connect(b, 0, a, next()%editPorts)
			subs++
			if len(r.Elements) < 16 {
				if _, err := r.AppendFrom(sub); err != nil {
					return err
				}
			}
			what = "AppendFrom"
		case 6:
			i := pick()
			if i >= 0 {
				r.RemoveAndSplice(i)
			}
			what = fmt.Sprintf("RemoveAndSplice(%d)", i)
		case 7:
			r.Compact()
			held = nil // Compact renumbers: old slices name old indices
			what = "Compact"
		case 8:
			r.SortConns()
			what = "SortConns"
		case 9:
			r = r.Clone()
			what = "Clone"
		}
		for _, h := range held {
			if !reflect.DeepEqual(h.got, h.was) {
				return fmt.Errorf("step %d, %s: %s(%d, ...) held %v, now %v", step, what, h.query, h.elem, h.was, h.got)
			}
		}
		if err := checkQueries(r); err != nil {
			return fmt.Errorf("step %d, after %s: %v\n%s", step, what, err, r)
		}
	}
	return nil
}

func TestIndexMatchesScanProperty(t *testing.T) {
	f := func(data []byte) bool {
		if err := graphEdits(data); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func FuzzGraphEdits(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0, 1, 1, 0, 2, 0, 6, 1, 3, 0})
	f.Add([]byte{1, 0, 1, 1, 2, 1, 1, 2, 2, 0, 5, 0, 1, 7, 8, 9, 4, 0, 1})
	f.Add([]byte{0, 0, 1, 4, 0, 4, 1, 1, 1, 4, 2, 6, 4, 2, 0, 0, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		if err := graphEdits(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRemoveAndSpliceOrderIsStable splices out a two-port element again
// and again: the new connections must come out in one order, port 0's
// before port 1's, every time.
func TestRemoveAndSpliceOrderIsStable(t *testing.T) {
	want := []Connection{{0, 0, 3, 0}, {1, 0, 4, 0}}
	for rep := 0; rep < 200; rep++ {
		r := New()
		s1 := r.MustAddElement("s1", "S", "", "")
		s2 := r.MustAddElement("s2", "S", "", "")
		mid := r.MustAddElement("m", "Null2", "", "")
		d1 := r.MustAddElement("d1", "D", "", "")
		d2 := r.MustAddElement("d2", "D", "", "")
		r.Connect(s1, 0, mid, 0)
		r.Connect(s2, 0, mid, 1)
		r.Connect(mid, 0, d1, 0)
		r.Connect(mid, 1, d2, 0)
		r.RemoveAndSplice(mid)
		if !reflect.DeepEqual(r.Conns, want) {
			t.Fatalf("repetition %d: Conns = %v, want %v", rep, r.Conns, want)
		}
	}
}
