package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Parent links the span that
// caused it; Trial names the trial (a cache-key prefix) or the campaign the
// work belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trial  string `json:"trial,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory, timed against one epoch, until the run
// writes them out. Untraced runs have none.
type spanLog struct {
	epoch time.Time

	dropped atomic.Int64 // per-call spans past each trial's first maxCallSpans

	mu     sync.Mutex
	spans  []span
	nextID int64
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// now returns nanoseconds since the log's epoch.
func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// add records a finished span.
func (l *spanLog) add(parent int64, trial, name string, start, end int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	l.spans = append(l.spans, span{ID: l.nextID, Parent: parent, Trial: trial, Name: name, Start: start, End: end})
}

// reserve allocates an id for a span whose children are recorded before it
// ends; finish records it under that id.
func (l *spanLog) reserve() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

func (l *spanLog) finish(id, parent int64, trial, name string, start, end int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trial: trial, Name: name, Start: start, End: end})
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
