package model

import (
	"fmt"

	"mph/internal/mpi"
)

// exchangeEdgeRows swaps the first and last rows of a row-major slab with
// the latitude neighbors on comm (rank-1 to the north, rank+1 to the
// south), receiving straight into the provided halo buffers on the model's
// own two requests, posted again every step. Both receives are posted before
// either row is sent. Both models share this pattern; distinct tags keep
// their streams separate when they coexist on one communicator.
func exchangeEdgeRows(comm *mpi.Comm, name string, data []float64, nlon, tag int, north, south []float64, reqs *[2]mpi.Request) error {
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
	var posted [2]bool
	for i, s := range sides {
		if posted[i] = s.peer >= 0 && s.peer < size; posted[i] {
			comm.StartRecvFloatsInto(&reqs[i], s.peer, tag, s.halo)
		}
	}
	var err error
	for i, s := range sides {
		if !posted[i] || err != nil {
			continue
		}
		if e := comm.SendFloats(s.peer, tag, s.edge); e != nil {
			err = fmt.Errorf("model %s: halo send %s: %w", name, s.dir, e)
		}
	}
	for i := range reqs {
		if !posted[i] {
			continue
		}
		if err != nil {
			reqs[i].Cancel() // the halo rows are the caller's again on return
		}
		if _, _, e := reqs[i].Wait(); e != nil && err == nil {
			err = fmt.Errorf("model %s: halo recv %s: %w", name, sides[i].dir, e)
		}
	}
	return err
}
