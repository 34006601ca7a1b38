package main

import (
	"hash/fnv"
	"io"
	"sort"
	"time"

	"saiyan/internal/pipeline"
)

// collector drains a pipeline's Results on its own goroutine, stamping
// each result's arrival; wait returns once Drain has closed the channel.
type collector struct {
	done    chan struct{}
	results []pipeline.Result
	at      []time.Time
}

func collect(p *pipeline.Pipeline, tr *Tracer, id uint64) *collector {
	c := &collector{done: make(chan struct{})}
	go func() {
		defer close(c.done)
		root := tr.Begin("collect", spanRef{}, id)
		defer root.End()
		for {
			sp := tr.Begin("pipeline.Results", root, id)
			r, ok := <-p.Results()
			sp.End()
			if !ok {
				return
			}
			c.results = append(c.results, r)
			c.at = append(c.at, time.Now())
		}
	}()
	return c
}

func (c *collector) wait() { <-c.done }

// latenciesMS returns each result's Submit-to-Result time, given the
// submission stamps indexed by the pipeline's sequence numbers.
func (c *collector) latenciesMS(submitted []time.Time) []float64 {
	out := make([]float64, 0, len(c.results))
	for i, r := range c.results {
		if r.Seq < uint64(len(submitted)) {
			out = append(out, float64(c.at[i].Sub(submitted[r.Seq]))/1e6)
		}
	}
	return out
}

// errs counts results that carry an error.
func (c *collector) errs() int {
	n := 0
	for _, r := range c.results {
		if r.Err != nil {
			n++
		}
	}
	return n
}

// digest hashes the decoded stream in submission order: sequence,
// detection, error presence, and every symbol. Worker count and
// completion order cannot change it.
func (c *collector) digest() uint64 {
	rs := append([]pipeline.Result(nil), c.results...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Seq < rs[j].Seq })
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, r := range rs {
		flags := uint64(0)
		if r.Detected {
			flags |= 1
		}
		if r.Err != nil {
			flags |= 2
		}
		put(r.Seq)
		put(flags)
		put(uint64(len(r.Symbols)))
		for _, s := range r.Symbols {
			put(uint64(s))
		}
	}
	return h.Sum64()
}

// submitBatch is the jobs per Submit call, as pipeline.Run submits them.
const submitBatch = 8

// submitAll pulls src dry into p in batches of submitBatch, stamping
// every job's submission time (indexed by the pipeline's sequence
// numbers, which follow submission order), with spans around each pull
// (named next) and each Submit.
func submitAll(p *pipeline.Pipeline, src pipeline.Source, tr *Tracer, parent spanRef, id uint64, next string) ([]time.Time, error) {
	var submitted []time.Time
	batch := make([]pipeline.Job, 0, submitBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		now := time.Now()
		for range batch {
			submitted = append(submitted, now)
		}
		sp := tr.Begin("pipeline.Submit", parent, id)
		err := p.Submit(batch...)
		sp.End()
		batch = batch[:0]
		return err
	}
	for {
		sp := tr.Begin(next, parent, id)
		j, err := src.Next()
		sp.End()
		if err == io.EOF {
			return submitted, flush()
		}
		if err != nil {
			return submitted, err
		}
		batch = append(batch, j)
		if len(batch) == submitBatch {
			if err := flush(); err != nil {
				return submitted, err
			}
		}
	}
}
