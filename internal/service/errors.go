package service

import (
	"errors"
	"fmt"
	"net/http"
)

// Error codes of the structured error envelope. Every 4xx/5xx response
// the API writes is
//
//	{"error": {"code": "...", "message": "...", "column": "..."}}
//
// where code is one of the stable machine-readable values below (the
// contract clients switch on — messages are for humans and may change),
// and column names the column the error is about when there is one.
const (
	// codeBadRequest: the request itself is malformed — undecodable
	// stream, bad query parameter, missing argument.
	codeBadRequest = "bad_request"
	// codeNotFound: the named column does not exist at all.
	codeNotFound = "column_not_found"
	// codeNotFinalized: the column exists but is still collecting, and
	// the request (join, frequency, sketch export) needs it finalized.
	// Retry after POST .../finalize.
	codeNotFinalized = "column_not_finalized"
	// codeFinalized: the column is already finalized and the request
	// (reports, advance, merge, finalize) only applies while collecting.
	codeFinalized = "column_finalized"
	// codeConflict: the request contradicts the column's state in some
	// other way — kind or attribute mismatch, plus-phase violation,
	// non-composable chain, incompatible snapshot.
	codeConflict = "column_conflict"
	// codeTooLarge: the request body exceeds a configured bound.
	codeTooLarge = "payload_too_large"
	// codeRateLimited: the server refused the request for load; retry
	// later. Nothing returns 429 today; the code stays so a future
	// admission bound keeps the envelope's vocabulary.
	codeRateLimited = "rate_limited"
	// codeServerClosed: the server is shutting down; retry elsewhere.
	codeServerClosed = "server_closed"
	// codeInternal: a server-side fault (disk, encoding).
	codeInternal = "internal"
)

// errorBody is the envelope's payload.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Column  string `json:"column,omitempty"`
}

// apiError is a refusal on its way to the client: the HTTP status plus
// the envelope's payload. Everything beneath the transport — the route
// functions, the operations and queries, register, the decoders —
// reports a refusal by returning one, and only the
// route adapter turns it into bytes (writeAPIError), so nothing that
// holds a column lock can also be holding a client socket. WAL replay
// runs the same code and sees the same value as a plain error.
type apiError struct {
	status int
	errorBody
}

func (e *apiError) Error() string { return e.Message }

// apiErrorf builds a refusal. column may be empty for errors not about
// a specific column (bad query parameters, server shutdown).
func apiErrorf(status int, code, column, format string, args ...any) *apiError {
	return &apiError{status, errorBody{Code: code, Message: fmt.Sprintf(format, args...), Column: column}}
}

// statusError builds a refusal with the status' default code and no
// column attribution — for errors where neither needs to be more
// precise.
func statusError(status int, format string, args ...any) *apiError {
	return apiErrorf(status, defaultCode(status), "", format, args...)
}

// writeAPIError writes a refusal as the structured error envelope. An
// error that is not an apiError is a server-side fault.
func writeAPIError(w http.ResponseWriter, err error) {
	var e *apiError
	if !errors.As(err, &e) {
		e = apiErrorf(http.StatusInternalServerError, codeInternal, "", "%v", err)
	}
	writeJSON(w, e.status, map[string]errorBody{"error": e.errorBody})
}

// defaultCode maps an HTTP status to its unambiguous envelope code —
// the statuses where one code fits every use. Statuses with more than
// one meaning here (409 splits into finalized / not-finalized /
// conflict) must pick their code explicitly.
func defaultCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return codeBadRequest
	case http.StatusNotFound:
		return codeNotFound
	case http.StatusConflict:
		return codeConflict
	case http.StatusRequestEntityTooLarge:
		return codeTooLarge
	case http.StatusTooManyRequests:
		return codeRateLimited
	case http.StatusServiceUnavailable:
		return codeServerClosed
	default:
		return codeInternal
	}
}
