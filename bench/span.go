package main

import (
	"encoding/json"
	"os"
	"time"
)

// A span is one timed interval at a layer boundary, recorded by the
// benchmark's own code around its calls into the simulator. Spans of one
// rep share the rep's span as ancestor; Parent 0 marks a root. Times are
// host wall-clock nanoseconds since the Unix epoch, so spans recorded in a
// child process line up with the parent's.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark ends. It is used from
// one goroutine.
type spanLog struct {
	spans []span
}

// begin opens a span and returns its id.
func (l *spanLog) begin(name, workload string, parent int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Workload: workload, StartNS: time.Now().UnixNano()})
	return id
}

func (l *spanLog) end(id int) { l.spans[id-1].EndNS = time.Now().UnixNano() }

// seconds is the duration of a closed span.
func (l *spanLog) seconds(id int) float64 {
	s := l.spans[id-1]
	return float64(s.EndNS-s.StartNS) / 1e9
}

// adopt appends the spans a child process recorded, renumbered, with the
// child's roots hung under parent.
func (l *spanLog) adopt(child []span, parent int) {
	base := len(l.spans)
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
}

func (l *spanLog) write(path string) error {
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
