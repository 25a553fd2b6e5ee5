package mgmt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/core"
)

// The management API exposes the handler tree over HTTP/JSON:
//
//	GET    /report                                   plane-wide report (op latency, cache, sharing)
//	GET    /tenants                                  list tenants
//	POST   /tenants/{id}                             create (body = config text)
//	PUT    /tenants/{id}                             hot-swap (body = config text)
//	DELETE /tenants/{id}                             delete
//	GET    /tenants/{id}/report                      telemetry snapshot
//	GET    /tenants/{id}/elements                    handler tree
//	GET    /tenants/{id}/elements/{name}/{handler}   read handler
//	POST   /tenants/{id}/elements/{name}/{handler}   write handler (body = value)
//
// The handler is always the LAST path segment, so element names
// containing '/' (combine link names, hierarchical tenant configs) are
// unambiguous without escaping; names containing '.' or '%' use the
// core escaping rule (%2E, %25, %2F) — the route parser works on the
// escaped path and unescapes the element part itself, sharing one
// decoder with in-process handler paths.

// Handler returns the management API as an http.Handler.
func (p *Plane) Handler() http.Handler {
	return http.HandlerFunc(p.serve)
}

// httpError is the JSON error envelope.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, httpError{Error: err.Error()})
}

// errStatus maps plane errors onto HTTP statuses: unknown names are
// 404, everything else from the control plane is a client error.
func errStatus(err error) int {
	msg := err.Error()
	if strings.Contains(msg, "no tenant") || strings.Contains(msg, "no element") || strings.Contains(msg, "no handler") {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

func (p *Plane) serve(w http.ResponseWriter, r *http.Request) {
	// Work on the escaped path: %2F inside an element name must not
	// split into segments, which r.URL.Path would already have done.
	path := r.URL.EscapedPath()
	if path == "/report" {
		if r.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("mgmt: %s not allowed", r.Method))
			return
		}
		writeJSON(w, http.StatusOK, p.Report())
		return
	}
	if path == "/tenants" || path == "/tenants/" {
		if r.Method != http.MethodGet {
			writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("mgmt: %s not allowed", r.Method))
			return
		}
		writeJSON(w, http.StatusOK, p.Tenants())
		return
	}
	rest, ok := strings.CutPrefix(path, "/tenants/")
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("mgmt: no route %q", path))
		return
	}
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		writeErr(w, http.StatusNotFound, fmt.Errorf("mgmt: missing tenant id"))
		return
	}
	switch {
	case sub == "":
		p.serveTenant(w, r, id)
	case sub == "report":
		p.serveReport(w, r, id)
	case sub == "elements" || sub == "elements/":
		p.serveElements(w, r, id)
	case strings.HasPrefix(sub, "elements/"):
		p.serveHandlerPath(w, r, id, strings.TrimPrefix(sub, "elements/"))
	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("mgmt: no route %q", path))
	}
}

// maxBody bounds a configuration or handler value a request may carry.
const maxBody = 1 << 20

// readBody reads a request body of at most maxBody bytes. A larger one
// is refused with 413 rather than cut short and handed to the parser;
// ok is false when the response has been written.
func readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("mgmt: request body exceeds %d bytes", maxBody))
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
	}
	return body, err == nil
}

func (p *Plane) serveTenant(w http.ResponseWriter, r *http.Request, id string) {
	switch r.Method {
	case http.MethodPost, http.MethodPut:
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		var err error
		if r.Method == http.MethodPost {
			err = p.Create(id, string(body), Limits{})
		} else {
			err = p.Swap(id, string(body))
		}
		if err != nil {
			writeErr(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "id": id})
	case http.MethodDelete:
		if err := p.Delete(id); err != nil {
			writeErr(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "id": id})
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("mgmt: %s not allowed", r.Method))
	}
}

func (p *Plane) serveReport(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("mgmt: %s not allowed", r.Method))
		return
	}
	rep, err := p.TenantReport(id)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (p *Plane) serveElements(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("mgmt: %s not allowed", r.Method))
		return
	}
	els, err := p.Elements(id)
	if err != nil {
		writeErr(w, errStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, els)
}

// serveHandlerPath resolves "{name...}/{handler}" where name may span
// several segments (element names may contain '/').
func (p *Plane) serveHandlerPath(w http.ResponseWriter, r *http.Request, id, rest string) {
	slash := strings.LastIndexByte(rest, '/')
	if slash <= 0 || slash == len(rest)-1 {
		writeErr(w, http.StatusNotFound, fmt.Errorf("mgmt: want elements/{name}/{handler}, got %q", rest))
		return
	}
	elemEsc, handler := rest[:slash], rest[slash+1:]
	element, ok := core.UnescapeElementName(elemEsc)
	if !ok {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("mgmt: bad element escape %q", elemEsc))
		return
	}
	switch r.Method {
	case http.MethodGet:
		v, err := p.ReadHandler(id, element, handler)
		if err != nil {
			writeErr(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{
			"tenant": id, "element": element, "handler": handler, "value": v,
		})
	case http.MethodPost, http.MethodPut:
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		value := strings.TrimSpace(string(body))
		if err := p.WriteHandler(id, element, handler, value); err != nil {
			writeErr(w, errStatus(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{
			"tenant": id, "element": element, "handler": handler, "status": "ok",
		})
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("mgmt: %s not allowed", r.Method))
	}
}
