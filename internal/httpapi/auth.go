package httpapi

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/idiomatic"
)

// Keyring is the static API-key table behind the auth middleware: one line
// per key in the keyfile, resolved to a tenant identity (name, fair-share
// weight, admin role). It is immutable after load — key rotation is a
// restart, which matches the static-keyfile trust model.
//
// Keyfile format (idiomd -keys), one entry per line:
//
//	<key> <client-name> [weight] [admin]
//
// '#' starts a comment; blank lines are skipped. Weight defaults to 1; the
// literal token "admin" grants access to the admin surface (GET
// /v1/clients). Two keys may share a client name (key rotation) — they are
// the same tenant to the fairness layer.
type Keyring struct {
	byKey map[string]idiomatic.Client
}

// LoadKeyring reads a keyfile from disk.
func LoadKeyring(path string) (*Keyring, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	kr, err := ParseKeyring(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return kr, nil
}

// ParseKeyring parses keyfile lines from r.
func ParseKeyring(r io.Reader) (*Keyring, error) {
	kr := &Keyring{byKey: map[string]idiomatic.Client{}}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("line %d: want \"<key> <name> [weight] [admin]\", got %q", line, text)
		}
		key := fields[0]
		if _, dup := kr.byKey[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key", line)
		}
		cl := idiomatic.Client{Name: fields[1], Weight: 1}
		for _, f := range fields[2:] {
			if f == "admin" {
				cl.Admin = true
				continue
			}
			w, err := strconv.Atoi(f)
			if err != nil || w < 1 {
				return nil, fmt.Errorf("line %d: bad weight %q (positive integer or \"admin\")", line, f)
			}
			cl.Weight = w
		}
		kr.byKey[key] = cl
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(kr.byKey) == 0 {
		return nil, fmt.Errorf("keyfile holds no keys")
	}
	return kr, nil
}

// Lookup resolves an API key to its client identity.
func (k *Keyring) Lookup(key string) (idiomatic.Client, bool) {
	cl, ok := k.byKey[key]
	return cl, ok
}

// Clients lists the distinct client identities in the ring, sorted by name.
// Two keys for the same name collapse to one entry (admin if any key is).
func (k *Keyring) Clients() []idiomatic.Client {
	byName := map[string]idiomatic.Client{}
	for _, cl := range k.byKey {
		have, ok := byName[cl.Name]
		if !ok {
			byName[cl.Name] = cl
			continue
		}
		have.Admin = have.Admin || cl.Admin
		if cl.Weight > have.Weight {
			have.Weight = cl.Weight
		}
		byName[cl.Name] = have
	}
	out := make([]idiomatic.Client, 0, len(byName))
	for _, cl := range byName {
		out = append(out, cl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// requestKey extracts the API key from a request: "Authorization: Bearer
// <key>" or the X-API-Key header.
func requestKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
	}
	return r.Header.Get("X-API-Key")
}

// authenticate wraps the API mux with key auth: every /v1/* request must
// present a known key and proceeds with its tenant identity on the request
// context; /healthz and /statsz stay open (liveness probes and scrapers
// carry no keys). Missing or unknown keys get the structured 401 envelope.
func authenticate(kr *Keyring, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		key := requestKey(r)
		if key == "" {
			WriteError(w, http.StatusUnauthorized, idiomatic.CodeUnauthenticated,
				"missing API key (use Authorization: Bearer <key> or X-API-Key)")
			return
		}
		cl, ok := kr.Lookup(key)
		if !ok {
			WriteError(w, http.StatusUnauthorized, idiomatic.CodeUnauthenticated, "unknown API key")
			return
		}
		next.ServeHTTP(w, r.WithContext(idiomatic.WithClient(r.Context(), cl)))
	})
}
