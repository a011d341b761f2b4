package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
)

// maxBodyBytes caps job-spec and seed-upload request bodies. Seeds are
// source text of small synthetic programs; 8 MiB is orders of magnitude
// above any legitimate submission, so larger bodies are hostile or
// broken clients and get 413 instead of unbounded buffering.
const maxBodyBytes = 8 << 20

// Server is the daemon's HTTP JSON API over one scheduler:
//
//	POST   /jobs               submit a job (503 while draining)
//	GET    /jobs               list jobs in submission order
//	GET    /jobs/{id}          one job, with live progress when running
//	DELETE /jobs/{id}          cancel a queued or running job
//	POST   /jobs/{id}/seeds    add user seed programs to a queued job
//	GET    /jobs/{id}/findings triage report; ?wait= long-polls, SSE streams
//	POST   /corpus/distill     score a corpus, return its diverse subset
//	GET    /metrics            Prometheus text exposition
//	GET    /healthz            liveness + drain status
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
}

// NewServer builds the API over a scheduler.
func NewServer(s *Scheduler) *Server {
	srv := &Server{sched: s, mux: http.NewServeMux()}
	srv.mux.HandleFunc("POST /jobs", srv.submitJob)
	srv.mux.HandleFunc("GET /jobs", srv.listJobs)
	srv.mux.HandleFunc("GET /jobs/{id}", srv.getJob)
	srv.mux.HandleFunc("DELETE /jobs/{id}", srv.cancelJob)
	srv.mux.HandleFunc("POST /jobs/{id}/seeds", srv.addSeeds)
	srv.mux.HandleFunc("GET /jobs/{id}/findings", srv.findings)
	srv.mux.HandleFunc("POST /corpus/distill", srv.distillCorpus)
	srv.mux.HandleFunc("GET /metrics", srv.metrics)
	srv.mux.HandleFunc("GET /healthz", srv.healthz)
	return srv
}

// Handler returns the route multiplexer.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) submitJob(w http.ResponseWriter, r *http.Request) {
	var spec core.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeDecodeErr(w, fmt.Errorf("decode job spec: %v", err), err)
		return
	}
	j, err := s.sched.Submit(spec)
	switch {
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusCreated, j.View())
	}
}

func (s *Server) listJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.sched.JobsInOrder()
	views := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	j := s.sched.Get(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, ErrUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) cancelJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.sched.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, ErrTerminal):
		writeErr(w, http.StatusConflict, err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, j.View())
	}
}

func (s *Server) addSeeds(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Seeds []core.SeedSpec `json:"seeds"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeDecodeErr(w, fmt.Errorf("decode seeds: %v", err), err)
		return
	}
	if len(body.Seeds) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("no seeds given"))
		return
	}
	j, err := s.sched.AddSeeds(r.PathValue("id"), body.Seeds)
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, ErrNotQueued):
		writeErr(w, http.StatusConflict, err)
	case err != nil:
		// A malformed seed program: corpus.Seed.TryParse rejected it.
		writeErr(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusOK, j.View())
	}
}

// findings serves the job's triage report. Plain GET returns the same
// JSON `triage report -json` writes; `?wait=<duration>` long-polls
// until new findings (or a state change) arrive or the wait expires;
// SSE (Accept: text/event-stream or ?stream=sse) tails the live
// finding stream until the job finishes or the client disconnects.
func (s *Server) findings(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.sched.Get(id)
	if j == nil {
		writeErr(w, http.StatusNotFound, ErrUnknownJob)
		return
	}
	if r.URL.Query().Get("stream") == "sse" || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamFindings(w, r, j)
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" && !j.State().Terminal() {
		wait, err := time.ParseDuration(waitStr)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("wait: %v", err))
			return
		}
		ch, cancel := s.sched.Broker().Subscribe(id)
		defer cancel()
		// Re-check after subscribing so a transition in the window does
		// not strand the poll.
		if !j.State().Terminal() {
			select {
			case <-ch:
			case <-time.After(wait):
			case <-r.Context().Done():
				return
			}
		}
	}
	rep, err := s.sched.Report(id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// The exact serialization `triage report -json` emits.
	_ = rep.WriteJSON(w)
}

// streamFindings serves the SSE tail: one "report" event with the
// current triage report, then live "finding"/"state" events until the
// job goes terminal or the client leaves.
func (s *Server) streamFindings(w http.ResponseWriter, r *http.Request, j *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("streaming unsupported"))
		return
	}
	id := j.ID()
	// Subscribe before the snapshot so no event between snapshot and
	// tail is lost (duplicates are possible and harmless; drops are not).
	ch, cancel := s.sched.Broker().Subscribe(id)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	rep, err := s.sched.Report(id)
	if err == nil {
		// SSE data must be one line; the report's canonical form is
		// indented, so re-marshal it compact for the frame.
		data, jerr := json.Marshal(rep)
		if jerr == nil {
			writeSSE(w, "report", data)
			fl.Flush()
		}
	}
	if j.State().Terminal() {
		data, _ := json.Marshal(Event{Type: "state", JobID: id, State: j.State()})
		writeSSE(w, "state", data)
		fl.Flush()
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			writeSSE(w, ev.Type, data)
			fl.Flush()
			if ev.Type == "state" && ev.State.Terminal() {
				return
			}
		}
	}
}

// writeSSE frames one server-sent event. Data is JSON (single line).
func writeSSE(w http.ResponseWriter, event string, data []byte) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// distillCorpus serves POST /corpus/distill: validate the submitted
// corpus exactly like a job submission (malformed seeds are 400, not a
// dry-run fault), score it, and return the corpus.DistillReport.
func (s *Server) distillCorpus(w http.ResponseWriter, r *http.Request) {
	var req DistillRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeDecodeErr(w, fmt.Errorf("decode distill request: %v", err), err)
		return
	}
	if err := req.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rep, err := s.sched.Distill(r.Context(), &req)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.sched.RenderMetrics(w)
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	s.sched.mu.Lock()
	n := len(s.sched.jobs)
	s.sched.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.sched.Draining(),
		"jobs":     n,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeDecodeErr maps a body-decode failure to a status: an oversized
// body (MaxBytesReader tripped) is 413, anything else 400.
func writeDecodeErr(w http.ResponseWriter, wrapped, cause error) {
	var tooBig *http.MaxBytesError
	if errors.As(cause, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, wrapped)
		return
	}
	writeErr(w, http.StatusBadRequest, wrapped)
}
