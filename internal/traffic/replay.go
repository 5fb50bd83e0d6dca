package traffic

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// Record is one packet of a replay trace: an emission offset from the
// flow's start and the packet size.
type Record struct {
	At   time.Duration
	Bits int
}

// Replay re-emits a recorded packet trace — offsets and sizes captured
// from a real link (or exported from a pcap with `tshark -T fields -e
// frame.time_relative -e frame.len`) — so experiments run on measured
// traffic instead of a synthetic model. The trace is finite: the flow
// ends when the records run out.
type Replay struct {
	// Records are the emissions in non-decreasing time order.
	Records []Record
}

// Name implements Source.
func (r Replay) Name() string { return "replay" }

// Validate implements Source.
func (r Replay) Validate() error {
	if len(r.Records) > math.MaxInt32 {
		return fmt.Errorf("traffic: replay trace has %d records, more than a flow can index", len(r.Records))
	}
	prev := time.Duration(0)
	for i, rec := range r.Records {
		if rec.At < prev {
			return fmt.Errorf("traffic: replay record %d at %v precedes record %d at %v (trace must be time-sorted)",
				i, rec.At, i-1, prev)
		}
		if rec.Bits <= 0 {
			return fmt.Errorf("traffic: replay record %d has non-positive size %d bits", i, rec.Bits)
		}
		prev = rec.At
	}
	return nil
}

func (r Replay) process() Process { return Process{kind: kindReplay, records: r.Records} }

// ReadTrace parses a textual packet trace: one `<seconds> <bytes>` pair
// per line (floating-point seconds from trace start, packet size in
// bytes — tshark's frame.time_relative / frame.len export), blank lines
// and #-comments ignored. Sizes are converted to bits.
func ReadTrace(r io.Reader) (Replay, error) {
	var out Replay
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return Replay{}, fmt.Errorf("traffic: trace line %d: want `<seconds> <bytes>`, got %q", line, text)
		}
		secs, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return Replay{}, fmt.Errorf("traffic: trace line %d: bad timestamp %q: %w", line, fields[0], err)
		}
		if secs < 0 {
			return Replay{}, fmt.Errorf("traffic: trace line %d: negative timestamp %g", line, secs)
		}
		bytes, err := strconv.Atoi(fields[1])
		if err != nil {
			return Replay{}, fmt.Errorf("traffic: trace line %d: bad size %q: %w", line, fields[1], err)
		}
		out.Records = append(out.Records, Record{
			At:   time.Duration(secs * float64(time.Second)),
			Bits: 8 * bytes,
		})
	}
	if err := sc.Err(); err != nil {
		return Replay{}, fmt.Errorf("traffic: reading trace: %w", err)
	}
	if err := out.Validate(); err != nil {
		return Replay{}, err
	}
	return out, nil
}
