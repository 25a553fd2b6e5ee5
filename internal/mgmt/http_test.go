package mgmt

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

func httpDo(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, blob
}

// TestHTTPHandlerTreeRoundTrip proves the HTTP view of the handler
// tree equals the in-process one: every element and handler a tenant
// exports reads the same value over HTTP as through ReadHandler.
func TestHTTPHandlerTreeRoundTrip(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustCreate(t, p, "t1", tenantConfig(2000, 128))
	drain(p)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	els, err := p.Elements("t1")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, el := range els {
		for _, h := range el.Handlers {
			want, err := p.ReadHandler("t1", el.Name, h)
			if err != nil {
				continue // write-only
			}
			code, blob := httpDo(t, "GET",
				srv.URL+"/tenants/t1/elements/"+core.EscapeElementName(el.Name)+"/"+h, "")
			if code != http.StatusOK {
				t.Errorf("GET %s/%s: status %d: %s", el.Name, h, code, blob)
				continue
			}
			var out map[string]string
			if err := json.Unmarshal(blob, &out); err != nil {
				t.Fatalf("GET %s/%s: %v", el.Name, h, err)
			}
			if out["value"] != want {
				t.Errorf("HTTP %s.%s = %q, in-process %q", el.Name, h, out["value"], want)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Errorf("only %d handlers round-tripped", checked)
	}

	// The elements listing matches too.
	code, blob := httpDo(t, "GET", srv.URL+"/tenants/t1/elements", "")
	if code != http.StatusOK {
		t.Fatalf("GET elements: %d: %s", code, blob)
	}
	var listed []ElementInfo
	if err := json.Unmarshal(blob, &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != len(els) {
		t.Errorf("HTTP lists %d elements, in-process %d", len(listed), len(els))
	}
}

// TestHTTPHostileElementNames drives handler paths whose element names
// contain '/' and '.' through the URL route: the handler is the last
// segment, and escaped forms resolve identically.
func TestHTTPHostileElementNames(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// "a/b" is a legal identifier in the config language.
	cfg := "s :: InfiniteSource(100) -> a/b :: Queue(50) -> u :: Unqueue -> d :: Discard;"
	mustCreate(t, p, "t1", cfg)
	drain(p)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	// Raw: the element spans two URL segments; the handler is the last.
	code, blob := httpDo(t, "GET", srv.URL+"/tenants/t1/elements/a/b/capacity", "")
	if code != http.StatusOK {
		t.Fatalf("raw nested path: %d: %s", code, blob)
	}
	var out map[string]string
	json.Unmarshal(blob, &out)
	if out["value"] != "50" || out["element"] != "a/b" {
		t.Errorf("raw nested path = %+v", out)
	}
	// Escaped: %2F must survive URL parsing and decode to the same
	// element (EscapedPath, not Path, feeds the router).
	code, blob = httpDo(t, "GET", srv.URL+"/tenants/t1/elements/a%2Fb/capacity", "")
	if code != http.StatusOK {
		t.Fatalf("escaped path: %d: %s", code, blob)
	}
	json.Unmarshal(blob, &out)
	if out["value"] != "50" {
		t.Errorf("escaped path = %+v", out)
	}
	// Writable through the same route.
	code, blob = httpDo(t, "POST", srv.URL+"/tenants/t1/elements/a%2Fb/capacity", "64")
	if code != http.StatusOK {
		t.Fatalf("write escaped path: %d: %s", code, blob)
	}
	if v, _ := p.ReadHandler("t1", "a/b", "capacity"); v != "64" {
		t.Errorf("capacity after HTTP write = %q", v)
	}
	// Unknown names 404.
	if code, _ := httpDo(t, "GET", srv.URL+"/tenants/t1/elements/ghost/class", ""); code != http.StatusNotFound {
		t.Errorf("ghost element: status %d", code)
	}
	if code, _ := httpDo(t, "GET", srv.URL+"/tenants/ghost/elements/a/class", ""); code != http.StatusNotFound {
		t.Errorf("ghost tenant: status %d", code)
	}
}

// TestHTTPLifecycle exercises create → traffic → swap → delete over
// the wire with zero loss.
func TestHTTPLifecycle(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	if code, blob := httpDo(t, "POST", srv.URL+"/tenants/t1", tenantConfig(4000, 256)); code != http.StatusOK {
		t.Fatalf("create: %d: %s", code, blob)
	}
	// Creating again conflicts.
	if code, _ := httpDo(t, "POST", srv.URL+"/tenants/t1", tenantConfig(1, 1)); code == http.StatusOK {
		t.Error("duplicate create succeeded")
	}
	// A config that fails to parse is rejected and leaves the plane
	// serving.
	if code, _ := httpDo(t, "POST", srv.URL+"/tenants/bad", "src :: Nonsense("); code == http.StatusOK {
		t.Error("malformed config admitted")
	}
	drain(p)

	code, blob := httpDo(t, "GET", srv.URL+"/tenants/t1/report", "")
	if code != http.StatusOK {
		t.Fatalf("report: %d: %s", code, blob)
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	var delivered int64
	for _, e := range rep.Elements {
		if e.Name == "d" {
			delivered = e.PacketsIn
		}
	}
	if delivered == 0 {
		t.Fatalf("report shows no traffic: %s", blob)
	}

	// Swap to a quiet config: counters must survive (zero loss).
	if code, blob := httpDo(t, "PUT", srv.URL+"/tenants/t1", tenantConfig(0, 99)); code != http.StatusOK {
		t.Fatalf("swap: %d: %s", code, blob)
	}
	code, blob = httpDo(t, "GET", srv.URL+"/tenants/t1/elements/d/packets_in", "")
	if code != http.StatusOK {
		t.Fatalf("post-swap read: %d: %s", code, blob)
	}
	var out map[string]string
	json.Unmarshal(blob, &out)
	if out["value"] != fmt.Sprint(delivered) {
		t.Errorf("delivered %s after swap, want %d (transplant lost counters)", out["value"], delivered)
	}

	// Tenant listing and delete.
	code, blob = httpDo(t, "GET", srv.URL+"/tenants", "")
	var infos []TenantInfo
	json.Unmarshal(blob, &infos)
	if code != http.StatusOK || len(infos) != 1 || infos[0].ID != "t1" || infos[0].Swaps != 1 {
		t.Errorf("tenant list: %d %s", code, blob)
	}
	if code, blob := httpDo(t, "DELETE", srv.URL+"/tenants/t1", ""); code != http.StatusOK {
		t.Fatalf("delete: %d: %s", code, blob)
	}
	if code, _ := httpDo(t, "GET", srv.URL+"/tenants/t1/report", ""); code != http.StatusNotFound {
		t.Errorf("deleted tenant report: status %d", code)
	}
}

// A body over the 1 MiB limit is refused whole with 413 on both routes
// that read one. It used to be cut at the limit and handed on, so an
// oversize configuration surfaced as a parse error somewhere in its
// middle — or, padded with a leading comment, as a successfully created
// empty tenant.
func TestHTTPOversizeBodyIs413(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	mustCreate(t, p, "t1", tenantConfig(0, 8))

	pad := "// " + strings.Repeat("x", maxBody) + "\n"
	for _, req := range []struct{ method, path string }{
		{"POST", "/tenants/big"},
		{"PUT", "/tenants/t1"},
		{"POST", "/tenants/t1/elements/q/capacity"},
	} {
		if code, blob := httpDo(t, req.method, srv.URL+req.path, pad+tenantConfig(0, 8)); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s with a %d-byte body: status %d: %.80s", req.method, req.path, len(pad), code, blob)
		}
	}
	if code, _ := httpDo(t, "GET", srv.URL+"/tenants/big/report", ""); code != http.StatusNotFound {
		t.Errorf("oversize create left a tenant behind: report status %d", code)
	}
	if infos := p.Tenants(); len(infos) != 1 || infos[0].Swaps != 0 {
		t.Errorf("oversize swap went through: %+v", infos)
	}
}

// TestHTTPPlaneReport checks GET /report: the plane-wide snapshot —
// op-latency counters, config-cache hits, and the sharing table —
// round-trips over HTTP and reflects the operations performed.
func TestHTTPPlaneReport(t *testing.T) {
	p, err := NewPlane(Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	cfg := tenantConfig(10, 32)
	if code, body := httpDo(t, "POST", srv.URL+"/tenants/a", cfg); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, body)
	}
	if code, body := httpDo(t, "POST", srv.URL+"/tenants/b", cfg); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, body)
	}
	if code, body := httpDo(t, "DELETE", srv.URL+"/tenants/b", ""); code != http.StatusOK {
		t.Fatalf("delete: %d %s", code, body)
	}

	code, blob := httpDo(t, "GET", srv.URL+"/report", "")
	if code != http.StatusOK {
		t.Fatalf("GET /report: %d %s", code, blob)
	}
	var rep PlaneReport
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("/report does not parse: %v\n%s", err, blob)
	}
	if rep.Tenants != 1 {
		t.Errorf("report tenants=%d, want 1", rep.Tenants)
	}
	if rep.Create.Count != 2 || rep.Delete.Count != 1 || rep.Create.TotalNS <= 0 {
		t.Errorf("report op stats create=%+v delete=%+v", rep.Create, rep.Delete)
	}
	if rep.ConfigCacheHits < 1 {
		t.Errorf("report cache hits = %d, want >= 1 (b reused a's text)", rep.ConfigCacheHits)
	}
	if code, _ := httpDo(t, "POST", srv.URL+"/report", ""); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /report = %d, want 405", code)
	}
}
