package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"ldpjoin/internal/core"
	"ldpjoin/internal/join"
)

// answer is what a query reply carries, and what the estimators called
// directly return for the same question.
type answer struct {
	Estimate       float64 // join, chain, plus join; the mean estimate of a frequency
	EstimateMedian float64 // frequency
	LowEstimate    float64 // plus join
	HighEstimate   float64 // plus join
	Cached         bool    // reply only
}

// estimate answers op from the harness's own reference sketches — the
// ones it folded serially in set-up — by calling the estimator the
// handler calls.
func (w *world) estimate(op *queryOp) (answer, error) {
	switch op.class {
	case opJoin:
		return answer{Estimate: w.joinA[op.a].ref.JoinSize(w.joinA[op.b].ref)}, nil
	case opFreq:
		ref := w.joinA[op.a].ref
		return answer{Estimate: ref.Frequency(op.value), EstimateMedian: ref.FrequencyMedian(op.value)}, nil
	case opChain:
		return answer{Estimate: core.ChainEstimate(w.joinA[op.a].ref, []*core.MatrixSketch{w.matrix.ref}, w.joinB[op.b].ref)}, nil
	case opPlus:
		est, err := core.EstimateJoinPlusColumns(w.plus[op.a].ref, w.plus[op.b].ref)
		return answer{Estimate: est.Estimate, LowEstimate: est.LowEstimate, HighEstimate: est.HighEstimate}, err
	}
	return answer{}, fmt.Errorf("no estimator for op class %d", op.class)
}

// checker holds served replies against direct estimates. Trials replay
// one sequence, so most replies are byte-for-byte ones already checked:
// each distinct reply of a key is parsed and compared once.
type checker struct {
	w    *world
	seen map[string][]checkedReply
}

type checkedReply struct {
	body []byte
	answer
}

// reply checks one served body and returns what it said.
func (c *checker) reply(op *queryOp, body []byte) (answer, error) {
	for _, v := range c.seen[op.key] {
		if bytes.Equal(v.body, body) {
			return v.answer, nil
		}
	}
	var got answer
	if err := json.Unmarshal(body, &got); err != nil {
		return got, fmt.Errorf("reply is not JSON: %w", err)
	}
	want, err := c.w.estimate(op)
	if err != nil {
		return got, err
	}
	want.Cached = got.Cached
	if got != want {
		return got, fmt.Errorf("served %+v, the estimator called directly gives %+v", got, want)
	}
	c.seen[op.key] = append(c.seen[op.key], checkedReply{bytes.Clone(body), got})
	return got, nil
}

// probeJoin asks the catalog for cfg.probes pair joins — a fixed,
// seed-determined set, the same for every workload — checks each against
// the direct estimate, and returns the median relative error.
func (r *run) probeJoin() float64 {
	w := r.w
	freqs := make([]map[uint64]int64, len(w.joinA))
	for i, col := range w.joinA {
		freqs[i] = join.Frequencies(col.values)
	}
	var res []float64
	// Walk the pairs (a, a+d) by rising distance d, so the probe touches
	// every column before it reuses one; d stays below n/2 so no pair
	// comes twice.
	for n, d := len(w.joinA), 1; d <= (n-1)/2; d++ {
		for a := 0; a < n && len(res) < w.cfg.probes; a++ {
			b := (a + d) % n
			op := w.joinOp(a, b)
			if got, ok := r.ask(&op); ok {
				exact := join.SizeFromFreqs(freqs[a], freqs[b])
				res = append(res, math.Abs(got.Estimate-exact)/exact)
			}
		}
	}
	return median(res)
}

// ask serves one untimed query, checks it, and returns the answer.
func (r *run) ask(op *queryOp) (answer, bool) {
	rep := call(r.w.handler, "GET", op.target, nil)
	if !r.ok(op.target, rep) {
		return answer{}, false
	}
	got, err := r.check.reply(op, rep.body)
	if err != nil {
		r.fail("%s: %v", op.target, err)
		return answer{}, false
	}
	return got, true
}
