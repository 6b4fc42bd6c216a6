package httpapi

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// API assembles a daemon's versioned HTTP surface. Handlers register under
// /v1 with Handle; Handler() serves the result, answering unknown paths
// (the retired unversioned ones included) with a 404 that lists the live
// /v1 surface.
type API struct {
	mux       *http.ServeMux
	routes    []string // live v1 surface, "METHOD /v1/path" or "/v1/path"
	finalized bool
}

// NewAPI returns an empty route table.
func NewAPI() *API { return &API{mux: http.NewServeMux()} }

// Handle registers a live /v1 route. pattern is a net/http ServeMux pattern
// whose path begins with /v1 (e.g. "POST /v1/predict", "GET /v1/models/{name}",
// or "/v1/metrics" for any method); it panics otherwise.
func (a *API) Handle(pattern string, h http.HandlerFunc) {
	if !strings.Contains(pattern, V1Prefix+"/") && !strings.HasSuffix(pattern, V1Prefix) {
		panic(fmt.Sprintf("httpapi: route %q is not under %s", pattern, V1Prefix))
	}
	a.mux.HandleFunc(pattern, h)
	a.routes = append(a.routes, pattern)
}

// Routes returns the live /v1 surface, sorted by path for stable output.
func (a *API) Routes() []string {
	out := append([]string(nil), a.routes...)
	sort.Strings(out)
	return out
}

// Handler returns the assembled surface. Paths matched by no registered
// route answer 404 with the live /v1 listing, so a client probing a removed
// or misspelled endpoint learns the current vocabulary.
func (a *API) Handler() http.Handler {
	if !a.finalized {
		a.finalized = true
		routes := a.Routes()
		a.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
			WriteJSON(w, http.StatusNotFound, ErrorBody{
				Error:  fmt.Sprintf("unknown route %s %s; live surface is versioned under %s", r.Method, r.URL.Path, V1Prefix),
				Routes: routes,
			})
		})
	}
	return a.mux
}
