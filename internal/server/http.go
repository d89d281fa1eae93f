package server

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Handler exposes the engine as the gcmcd HTTP/JSON API:
//
//	POST   /v1/jobs               submit a job (SubmitRequest -> JobInfo)
//	GET    /v1/jobs               list jobs (newest first)
//	GET    /v1/jobs/{id}          job snapshot
//	GET    /v1/jobs/{id}/stream   NDJSON progress stream (one JobInfo per line,
//	                              last line is the terminal snapshot)
//	DELETE /v1/jobs/{id}          cancel
//	GET    /v1/verdicts?fingerprint=<hex>   cached verdict lookup
//	GET    /v1/corpus             corpus matrix with per-cell status
//	POST   /v1/corpus             enqueue the corpus as background jobs
//	GET    /healthz               liveness + build identity
//	GET    /metrics               service counters (JSON)
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", e.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", e.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", e.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", e.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", e.handleCancel)
	mux.HandleFunc("GET /v1/verdicts", e.handleVerdicts)
	mux.HandleFunc("GET /v1/corpus", e.handleCorpus)
	mux.HandleFunc("POST /v1/corpus", e.handleEnqueueCorpus)
	mux.HandleFunc("GET /healthz", e.handleHealthz)
	mux.HandleFunc("GET /metrics", e.handleMetrics)
	return mux
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// maxSubmitBytes bounds a POST /v1/jobs body; a spec is a few hundred
// bytes.
const maxSubmitBytes = 1 << 20

// handleSubmit is strict about what it accepts — a misspelt or deleted
// option is an error naming the field, never a silently different job.
// (Job records read back from disk stay lenient: see recover.)
func (e *Engine) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	info, err := e.Submit(req.Spec, req.Priority, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (e *Engine) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, e.List())
}

func (e *Engine) handleGet(w http.ResponseWriter, r *http.Request) {
	info, ok := e.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (e *Engine) handleCancel(w http.ResponseWriter, r *http.Request) {
	info, err := e.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleStream writes NDJSON: the current snapshot, progress snapshots
// as they arrive, and finally the terminal snapshot. Consumers take
// the last line as the result.
func (e *Engine) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := e.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	emit := func(v JobInfo) {
		enc.Encode(v)
		if canFlush {
			flusher.Flush()
		}
	}
	emit(info)
	if info.State.Terminal() {
		return
	}
	ch, cancel, ok := e.Subscribe(id)
	if !ok {
		return
	}
	defer cancel()
	for {
		select {
		case snap, open := <-ch:
			if !open {
				// Terminal: emit the settled record as the last line.
				if final, ok := e.Get(id); ok {
					emit(final)
				}
				return
			}
			emit(snap)
			if snap.State.Terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (e *Engine) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	fp := r.URL.Query().Get("fingerprint")
	if fp == "" {
		writeError(w, http.StatusBadRequest, "missing fingerprint parameter")
		return
	}
	rec, ok := e.CachedVerdict(fp)
	if !ok {
		writeError(w, http.StatusNotFound, "no cached verdict for fingerprint %q", fp)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (e *Engine) handleCorpus(w http.ResponseWriter, r *http.Request) {
	cells, err := e.Corpus()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, cells)
}

func (e *Engine) handleEnqueueCorpus(w http.ResponseWriter, r *http.Request) {
	n, err := e.EnqueueCorpus()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"enqueued": n})
}

func (e *Engine) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, e.Healthz())
}

func (e *Engine) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, e.Metrics())
}
