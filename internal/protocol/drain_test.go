package protocol

import (
	"bufio"
	"fmt"
	"io"

	"ldpjoin/internal/core"
)

// drainStream is the tests' push loop over Next(max): every report of
// every whole batch goes to sink, and the count is what sink saw — on
// an error fewer than the reader consumed, because a failing batch is
// discarded whole (a failing Next that still hands out a batch is
// itself an error here). err is the reader constructor's.
func drainStream[R, P any](rd *batchReader[R, P], err error, max int, sink func(R)) (Header, int, error) {
	if err != nil {
		return Header{}, 0, err
	}
	delivered := 0
	for {
		batch, err := rd.Next(max)
		if err == io.EOF {
			return rd.Header(), delivered, nil
		}
		if err != nil {
			if batch != nil {
				err = fmt.Errorf("failing Next delivered %d reports: %w", len(batch), err)
			}
			return rd.Header(), delivered, err
		}
		for _, rep := range batch {
			sink(rep)
		}
		delivered += len(batch)
		rd.codec.pool.Put(batch)
	}
}

func readStream(r io.Reader, expect core.Params, sink func(core.Report)) (Header, int, error) {
	rd, err := NewBatchReader(r, expect)
	return drainStream(rd, err, 0, sink)
}

func readMatrixStream(r io.Reader, expect core.MatrixParams, sink func(core.MatrixReport)) (Header, int, error) {
	rd, err := NewMatrixBatchReader(r, expect)
	return drainStream(rd, err, 0, sink)
}

func readPlusStream(r io.Reader, expect core.Params, sink func(core.Report)) (Header, PlusGroup, int, error) {
	br := bufio.NewReader(r)
	h, err := ReadHeader(br)
	if err != nil {
		return Header{}, 0, 0, err
	}
	rd, group, err := NewPlusBatchReaderFrom(br, h, expect)
	h, n, err := drainStream(rd, err, 0, sink)
	return h, group, n, err
}
