package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval. Spans of one epoch share the epoch number;
// parent 0 marks a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Epoch  uint64  `json:"epoch"`
	Group  int     `json:"group"` // -1 when the span covers every group
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// spanLog keeps spans in memory until the run ends. Times are
// microseconds since the log was created.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(name string, parent int, epoch uint64, group int, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Epoch: epoch, Group: group,
		Start: float64(start.Sub(l.origin).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(l.origin).Nanoseconds()) / 1e3,
	})
	return id
}

// write stores the spans as a JSON array.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
