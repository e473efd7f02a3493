// Package a seeds the errenvelope analyzer: error statuses must flow
// through the WriteError helpers so every non-2xx carries the v1 envelope.
package a

import "net/http"

func handlerHTTPError(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "nope", http.StatusBadRequest) // want "http.Error bypasses the v1 error envelope"
}

func handlerBareHeader(w http.ResponseWriter) {
	w.WriteHeader(http.StatusInternalServerError) // want `WriteHeader\(500\) outside the WriteError helpers`
}

func handlerNonConst(w http.ResponseWriter, status int) {
	w.WriteHeader(status) // want "WriteHeader with a non-constant status"
}

// Success statuses outside the helpers are fine — the envelope contract only
// covers errors.
func handlerOK(w http.ResponseWriter) {
	w.WriteHeader(http.StatusAccepted)
}

// The helpers themselves own the status line.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	w.WriteHeader(status)
	http.Error(w, msg, status)
}

func writeErrorRetry(w http.ResponseWriter, status int) {
	w.WriteHeader(status)
}

func WriteJSON(w http.ResponseWriter, status int) {
	w.WriteHeader(status)
}

// healthGate is a documented exception: a bare 503 probe response that
// monitoring reads by status only.
func healthGate(w http.ResponseWriter, ready bool) {
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable) //lint:allow errenvelope probe endpoint, status-only contract with the LB
	}
}
