package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call in the traced replay. Spans of one query share
// Query; a root span has Parent -1.
type span struct {
	ID     int32
	Parent int32
	Query  int32
	Name   string
	Start  int64 // ns since the recorder's base
	End    int64
}

// recorder keeps spans in memory; write dumps them once the replay ends.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its ID.
func (r *recorder) begin(query int32, name string, parent int32) int32 {
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: int64(time.Since(r.base))})
	return id
}

// end closes the span id.
func (r *recorder) end(id int32) { r.spans[id].End = int64(time.Since(r.base)) }

// write dumps every span as tab-separated id, parent, query, name,
// start_ns, end_ns.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tquery\tname\tstart_ns\tend_ns")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Query, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in ns: its duration minus the
// part of its interval that the union of its children covers. Children
// are clipped to the parent's interval, and overlapping children are
// counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	for i, s := range spans {
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := spans[c].Start, spans[c].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				if v.b > curB {
					curB = v.b
				}
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}
