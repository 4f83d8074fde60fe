package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of the benchmark's own work: a cold build, a
// cell repeat, or a unit-cost probe.
type span struct {
	name, cat  string
	start, dur time.Duration // start is since the bench's epoch
	args       map[string]any
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced runs pay only a nil check per span.
type spanLog struct {
	spans []span
}

func (l *spanLog) add(name, cat string, start, dur time.Duration, args map[string]any) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name: name, cat: cat, start: start, dur: dur, args: args})
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace-event JSON file. Each
// category gets its own track.
func (l *spanLog) writeChrome(path string) error {
	tids := map[string]int{}
	events := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		tid, ok := tids[s.cat]
		if !ok {
			tid = len(tids) + 1
			tids[s.cat] = tid
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.dur) / float64(time.Microsecond),
			Pid: 1, Tid: tid, Args: s.args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
