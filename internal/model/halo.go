package model

import (
	"fmt"

	"mph/internal/mpi"
)

// exchangeEdgeRows swaps the first and last rows of a row-major slab with
// the latitude neighbors on comm (rank-1 to the north, rank+1 to the
// south), receiving straight into the provided halo buffers. Both receives
// are posted before either row is sent. Both models share this pattern;
// distinct tags keep their streams separate when they coexist on one
// communicator.
func exchangeEdgeRows(comm *mpi.Comm, name string, data []float64, nlon, tag int, north, south []float64) error {
	size := comm.Size()
	rows := len(data) / nlon
	sides := [2]struct {
		peer       int
		halo, edge []float64
		dir        string
	}{
		{comm.Rank() - 1, north[:nlon], data[:nlon], "north"},
		{comm.Rank() + 1, south[:nlon], data[(rows-1)*nlon:], "south"},
	}
	var reqs [2]*mpi.Request
	for i, s := range sides {
		if s.peer >= 0 && s.peer < size {
			reqs[i] = comm.IrecvFloatsInto(s.peer, tag, s.halo)
		}
	}
	var err error
	for i, s := range sides {
		if reqs[i] == nil || err != nil {
			continue
		}
		if e := comm.SendFloats(s.peer, tag, s.edge); e != nil {
			err = fmt.Errorf("model %s: halo send %s: %w", name, s.dir, e)
		}
	}
	for i, rq := range reqs {
		if rq == nil {
			continue
		}
		if err != nil {
			rq.Cancel() // the halo rows are the caller's again on return
		}
		if _, _, e := rq.Wait(); e != nil && err == nil {
			err = fmt.Errorf("model %s: halo recv %s: %w", name, sides[i].dir, e)
		}
	}
	return err
}
