package fleet

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"sync"

	"wwb/internal/crux"
	"wwb/internal/experiments"
	"wwb/internal/world"
)

// rendered is a finished 200 JSON response: the exact bytes WriteJSON
// would send for a value, and their ChecksumHeader value, both computed
// once. Responses whose inputs are fixed for an epoch (or for the
// process) are rendered once and served from here, so a request costs
// a lookup and a write instead of a filter, an encode and a CRC.
type rendered struct {
	body []byte
	sum  string
}

// render encodes v exactly as WriteJSON does.
func render(v any) *rendered {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		log.Printf("encoding response: %v", err)
	}
	// Clone: the body is kept for an epoch or longer, and the buffer's
	// spare capacity would be kept with it.
	body := bytes.Clone(buf.Bytes())
	return &rendered{body: body, sum: BodyChecksum(body)}
}

// writeRendered sends a pre-rendered 200 JSON response.
func writeRendered(w http.ResponseWriter, r *rendered) {
	w.Header().Set("Content-Type", "application/json")
	writeSummed(w, http.StatusOK, r)
}

// writeSummed sends status and a body whose checksum is already known.
// Under the checksum middleware the body and checksum are handed over
// as they are, not copied into the response buffer and hashed again.
func writeSummed(w http.ResponseWriter, status int, r *rendered) {
	if cw, ok := w.(*checksummedWriter); ok && cw.status == 0 {
		cw.status, cw.pre = status, r
		return
	}
	w.Header().Set(ChecksumHeader, r.sum)
	w.WriteHeader(status)
	w.Write(r.body)
}

// cruxBodies is a /v1/crux export rendered per scope: each country's
// records, and the global ones under "".
type cruxBodies struct {
	byScope map[string]*rendered
}

// nullBody is what crux.Filter's nil result encodes to: the body of a
// scope the export holds no records for.
var nullBody = render(nil)

// renderCrux renders the scopes of an export that keep accepts (every
// scope when keep is nil) in one pass. Each body is the encoding of
// crux.Filter(recs, scope).
func renderCrux(recs []crux.Record, keep func(scope string) bool) *cruxBodies {
	byScope := map[string][]crux.Record{}
	for _, r := range recs {
		if keep == nil || keep(r.Country) {
			byScope[r.Country] = append(byScope[r.Country], r)
		}
	}
	out := &cruxBodies{byScope: make(map[string]*rendered, len(byScope))}
	for scope, rs := range byScope {
		out.byScope[scope] = render(rs)
	}
	return out
}

// scope returns the body for one scope ("" = global).
func (b *cruxBodies) scope(country string) *rendered {
	if r, ok := b.byScope[country]; ok {
		return r
	}
	return nullBody
}

// countriesBody is the /v1/countries response; the roster is the world
// model, fixed for the life of the process.
var countriesBody = sync.OnceValue(func() *rendered {
	type country struct {
		Code      string `json:"code"`
		Name      string `json:"name"`
		Continent string `json:"continent"`
	}
	var out []country
	for _, c := range world.Countries() {
		out = append(out, country{Code: c.Code, Name: c.Name, Continent: c.Continent})
	}
	return render(out)
})

// experimentsBody is the /v1/experiments response: the static
// experiment catalogue.
var experimentsBody = sync.OnceValue(func() *rendered {
	type exp struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []exp
	for _, id := range experiments.IDs() {
		e, _ := experiments.Lookup(id)
		out = append(out, exp{ID: e.ID, Title: e.Title})
	}
	return render(out)
})
