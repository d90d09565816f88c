package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/coyote-te/coyote/internal/delta"
	"github.com/coyote-te/coyote/internal/demand"
	"github.com/coyote-te/coyote/internal/scen"
)

// FuzzUpdateBody sends arbitrary POST /update bodies to one session on a
// small generated topology at minimal effort. Every answer is 200 or 400 —
// never a 5xx, never a panic — and a 400 leaves the event log (GET /stats)
// as it was.
func FuzzUpdateBody(f *testing.F) {
	for _, body := range []string{
		`{"scale":1.2}`,
		`{"scale":-1}`,
		`{"scale":1e308}`,
		`{"scale":5e-324}`,
		`{}`,
		`{"margin":2,"entries":[{"from":"v0","to":"v1","rate":1.5}]}`,
		`{"margin":1e308,"entries":[{"from":"v1","to":"v0","rate":1e-300}]}`,
		`{"margin":0.5,"entries":[{"from":"v0","to":"v1","rate":1}]}`,
		`{"entries":[{"from":"v0","to":"v1","rate":0}]}`,
		`{"entries":[{"from":"v0","to":"v0","rate":1}]}`,
		`{"entries":[{"from":"v0","to":"v9","rate":1}]}`,
		`{"scale":1.1,"entries":[{"from":"v0","to":"v1","rate":1}]}`,
		`{"scale":1e999}`,
		`not json`,
		`null`,
	} {
		f.Add([]byte(body))
	}
	g, err := scen.Generate("ring", scen.Params{N: 5, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	ses, err := delta.NewSession(g, demand.MarginBox(demand.Gravity(g, 1), 2), delta.Config{
		OptIters: 2, AdvIters: 1, Samples: 1, Seed: 1, Workers: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	h := New(ses).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := len(ses.Events())
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/update", bytes.NewReader(body)))
		switch rr.Code {
		case http.StatusOK:
		case http.StatusBadRequest:
			if after := len(ses.Events()); after != before {
				t.Fatalf("body %q: 400 but the event log grew %d → %d", body, before, after)
			}
		default:
			t.Fatalf("body %q: status %d: %s", body, rr.Code, rr.Body)
		}
	})
}
