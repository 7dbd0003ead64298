package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names are this repository's modules.
const (
	layerHarness = "harness" // the load generator itself; never a named layer
	layerRemote  = "remote"
	layerCore    = "core"
	layerStore   = "store"
	layerKeylime = "keylime"
	layerHIL     = "hil"
	layerBMI     = "bmi"
	layerDriver  = "driver"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the recorder's epoch. Op is the operation the work
// belongs to ("" when the boundary carries no identity); Key is the
// request line for remote spans, which is how a server span finds the
// client call that caused it, and for an operation span the request
// line of the call that waited for it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     string `json:"op,omitempty"`
	Key    string `json:"key,omitempty"`
	Server bool   `json:"server,omitempty"`
	Node   string `json:"node,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"` // response body size, server spans only
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. The undecorated
// comparison run has no recorder at all: callers check for nil.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	paused atomic.Bool // spans arriving while paused are dropped (warm-up)

	mu     sync.Mutex
	spans  []span
	lastOp map[string]string // node name, or "enclave/"+name -> the operation last started on it
}

func newRecorder() *recorder {
	// A 200-cycle replay records tens of thousands of spans; room for
	// them up front keeps slice growth out of the traced latencies.
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16), lastOp: make(map[string]string)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// at converts a wall-clock instant of this host to recorder time.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// newID reserves a span ID, so children can name a parent that has
// not finished yet.
func (r *recorder) newID() int { return int(r.nextID.Add(1)) }

// pause stops (or resumes) recording; a replay calls it whether or not
// it records, so it is nil-safe.
func (r *recorder) pause(on bool) {
	if r != nil {
		r.paused.Store(on)
	}
}

// add records a finished span, giving it an ID if it has none.
func (r *recorder) add(s span) {
	if r.paused.Load() {
		return
	}
	if s.ID == 0 {
		s.ID = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// bind remembers the operation now working on a node or enclave, for
// the calls that carry no context to read it from.
func (r *recorder) bind(node, op string) {
	if op == "" {
		return
	}
	r.mu.Lock()
	r.lastOp[node] = op
	r.mu.Unlock()
}

func (r *recorder) boundOp(node string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastOp[node]
}

// writeNDJSON dumps every span, one JSON object per line.
func (r *recorder) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals, each clipped
// to [lo, hi]: overlapping and nested intervals count once.
func unionLen(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		if iv.lo > end {
			total += iv.hi - iv.lo
		} else {
			total += iv.hi - end
		}
		end = iv.hi
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(s span, children []span) int64 {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	return s.dur() - unionLen(ivs, s.Start, s.End)
}

// link fills in the parents the recording side could not know. A
// client call already names its cycle. A server span hangs under the
// client call with the same request line that contains it; an
// operation span under the server span that waited for it (named by
// request line); a backend or store span under the backend call on the
// same node that contains it, else under its operation while that
// runs, else under the tightest server span around it (the release
// path runs inside its handler), else under whatever operation was
// running around it (a flush with no identity).
func link(spans []span) {
	clients := make(map[string][]int) // client calls by request line
	serverByKey := make(map[string][]int)
	opSpan := make(map[string]int) // operation id -> index
	var servers, ops []int
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Layer == layerRemote && s.Server:
			servers = append(servers, i)
			serverByKey[s.Key] = append(serverByKey[s.Key], i)
		case s.Layer == layerRemote:
			clients[s.Key] = append(clients[s.Key], i)
		case s.Layer == layerCore:
			opSpan[s.Op] = i
			ops = append(ops, i)
		}
	}
	// tightest returns the candidate with the latest start containing s.
	tightest := func(cands []int, s *span) int {
		best := -1
		for _, c := range cands {
			o := &spans[c]
			if o.Start <= s.Start && s.End <= o.End && (best == -1 || o.Start > spans[best].Start) {
				best = c
			}
		}
		return best
	}
	for _, i := range servers {
		if p := tightest(clients[spans[i].Key], &spans[i]); p >= 0 {
			spans[i].Parent = spans[p].ID
		}
	}
	for _, i := range ops {
		// The handler that blocked on the operation overlaps it without
		// containing it: the operation starts inside the submit.
		for _, sv := range serverByKey[spans[i].Key] {
			if spans[sv].Start < spans[i].End && spans[i].Start < spans[sv].End {
				spans[i].Parent = spans[sv].ID
			}
		}
	}
	isBackend := func(s *span) bool {
		switch s.Layer {
		case layerStore, layerKeylime, layerHIL, layerBMI, layerDriver:
			return true
		}
		return false
	}
	// Backend calls nest: driver.Boot enrols the agent with the
	// registrar, so a call on the same node inside another hangs under
	// it, not beside it.
	sameWork := func(s *span) string { return s.Node + "\x00" + s.Op }
	byNode := make(map[string][]int) // backend calls on one node for one operation
	for i := range spans {
		if isBackend(&spans[i]) && spans[i].Node != "" {
			byNode[sameWork(&spans[i])] = append(byNode[sameWork(&spans[i])], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if !isBackend(s) {
			continue
		}
		var around []int
		for _, o := range byNode[sameWork(s)] {
			if o != i && spans[o].dur() > s.dur() {
				around = append(around, o)
			}
		}
		if p := tightest(around, s); p >= 0 {
			s.Parent = spans[p].ID
		} else if oi, ok := opSpan[s.Op]; ok && spans[oi].Start <= s.Start && s.End <= spans[oi].End {
			s.Parent = spans[oi].ID
		} else if p := tightest(servers, s); p >= 0 {
			s.Parent = spans[p].ID
		} else if p := tightest(ops, s); p >= 0 {
			s.Parent = spans[p].ID
		}
	}
}

// layerRow is one line of the budget table.
type layerRow struct {
	Layer  string  `json:"layer"`
	Calls  int     `json:"calls"`
	BusyMs float64 `json:"busy_ms"` // sum of span durations
	SelfMs float64 `json:"self_ms"` // sum of self times
}

// budget computes, per layer, calls, busy and self time, and the share
// of the cycle spans' total length that their client calls cover
// (every named layer's span nests under one of them; the rest is the
// load generator's own time).
func budget(spans []span) (rows []layerRow, coveragePct float64) {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	agg := make(map[string]*layerRow)
	var rootLen, covered int64
	for _, s := range spans {
		if s.Layer == layerHarness {
			rootLen += s.dur()
			covered += s.dur() - selfTime(s, children[s.ID])
			continue
		}
		row := agg[s.Layer]
		if row == nil {
			row = &layerRow{Layer: s.Layer}
			agg[s.Layer] = row
		}
		row.Calls++
		row.BusyMs += float64(s.dur()) / 1e6
		row.SelfMs += float64(selfTime(s, children[s.ID])) / 1e6
	}
	if rootLen > 0 {
		coveragePct = 100 * float64(covered) / float64(rootLen)
	}
	for _, r := range agg {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMs > rows[j].SelfMs })
	return rows, coveragePct
}

// printBudget renders the table for one cycle.
func printBudget(w *os.File, title string, rows []layerRow, cycles int) {
	var total float64
	for _, r := range rows {
		total += r.SelfMs
	}
	fmt.Fprintf(w, "%s (per cycle, %d cycles)\n", title, cycles)
	fmt.Fprintf(w, "  %-8s %8s %10s %10s %7s\n", "layer", "calls", "busy ms", "self ms", "share")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * r.SelfMs / total
		}
		fmt.Fprintf(w, "  %-8s %8.1f %10.3f %10.3f %6.1f%%\n", r.Layer,
			float64(r.Calls)/float64(cycles), r.BusyMs/float64(cycles), r.SelfMs/float64(cycles), share)
	}
}
