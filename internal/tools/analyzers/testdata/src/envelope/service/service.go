// Package service exercises the envelope analyzer inside a service
// path segment, where both http.Error and bare error WriteHeader are
// violations.
package service

import (
	"encoding/json"
	"net/http"
)

// apiError and writeAPIError are the fixture's stand-ins for errors.go:
// a refusal is a value, and the status its one writer writes is a
// variable — the writers' own plumbing, never flagged.
type apiError struct {
	status        int
	code, message string
}

func writeAPIError(w http.ResponseWriter, e apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{"code": e.code, "message": e.message},
	})
}

func handleBad(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "boom", http.StatusInternalServerError) // want `http\.Error writes text/plain, not the structured error envelope`
	w.WriteHeader(http.StatusBadRequest)                  // want `bare WriteHeader\(400\) bypasses the structured error envelope`
	w.WriteHeader(503)                                    // want `bare WriteHeader\(503\) bypasses the structured error envelope`
}

func handleGood(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeAPIError(w, apiError{http.StatusMethodNotAllowed, "method_not_allowed", "POST required"})
		return
	}
	w.WriteHeader(http.StatusNoContent) // success statuses are fine bare
}

// A wrapper implementing http.ResponseWriter is held to the same rule.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func handleWrapped(sw *statusWriter) {
	sw.WriteHeader(http.StatusBadGateway) // want `bare WriteHeader\(502\) bypasses the structured error envelope`
}

// WriteHeader on a non-ResponseWriter type is someone else's method.
type frame struct{}

func (f *frame) WriteHeader(version int) {}

func handleFrame(f *frame) {
	f.WriteHeader(500)
}

// A waived bare status documents its reason.
func handleWaived(w http.ResponseWriter) {
	//ldpjoinvet:ignore envelope HEAD responses carry no body, so there is no envelope to write
	w.WriteHeader(http.StatusNotFound)
}
