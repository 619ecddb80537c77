package service

import (
	"encoding/json"
	"fmt"
	"net/http"

	"tqec/internal/journal"
)

// handleEvents streams a job's flight-recorder journal as Server-Sent
// Events. The subscription replays every event still in the ring buffer
// (so a late subscriber sees the full history) and then tails live events
// until the job reaches a terminal state — the recorder closes there,
// which closes the stream — or the client disconnects. Wire format, per
// event:
//
//	id: <seq>
//	event: <type>
//	data: <event JSON>
//
// with a terminating blank line, exactly the text/event-stream framing
// EventSource expects. The id field carries the journal sequence number,
// so a reconnecting client can tell where its previous stream stopped
// (events older than the ring buffer are gone; the replay starts at the
// oldest retained event).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "response writer cannot stream"})
		return
	}

	replay, live, cancel := j.recorder.Subscribe()
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	for _, ev := range replay {
		if writeSSE(w, ev) != nil {
			return
		}
	}
	fl.Flush()

	for {
		select {
		case ev, ok := <-live:
			if !ok {
				// Recorder closed: the job is terminal and the final
				// job-state event has been delivered.
				return
			}
			if writeSSE(w, ev) != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE frames one journal event in text/event-stream form.
func writeSSE(w http.ResponseWriter, ev journal.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}

// JournalResponse is the GET /v1/jobs/{id}/journal body.
type JournalResponse struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State State  `json:"state"`
	// Journal is the structured waterfall document of the compile; absent
	// for jobs that ran no pipeline (cache replays, failures, rejections).
	Journal *journal.Journal `json:"journal,omitempty"`
	// Events is the raw event history still held by the ring buffer, with
	// EventsDropped counting what the ring let go.
	Events        []journal.Event `json:"events"`
	EventsDropped int64           `json:"events_dropped"`
}

// handleJournal serves the finished job's structured journal — the same
// document tqecc -explain-json writes — plus the buffered raw events. It
// answers 409 while the job is still queued or running (stream
// /v1/jobs/{id}/events instead).
func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	s.mu.Lock()
	state, doc := j.state, j.journal
	id, name := j.ID, j.Name
	s.mu.Unlock()
	if !state.Terminal() {
		writeJSON(w, http.StatusConflict, errorResponse{Error: fmt.Sprintf("job is %s, journal not final (stream /v1/jobs/%s/events)", state, id)})
		return
	}
	writeJSON(w, http.StatusOK, JournalResponse{
		ID:            id,
		Name:          name,
		State:         state,
		Journal:       doc,
		Events:        j.recorder.Events(),
		EventsDropped: j.recorder.Dropped(),
	})
}
