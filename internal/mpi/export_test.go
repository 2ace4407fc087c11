package mpi

// Test-only handles on two unexported collectives, for the external tests
// and benchmarks of package mpi_test: the allgather behind Split, and the
// binomial-tree reduce behind the flat and two-level allreduce, at any root.
var Allgather = (*Comm).allgather

// ReduceTree reduces a copy of data to root.
func ReduceTree(c *Comm, root int, data []byte, fn func(acc, in []byte) ([]byte, error)) ([]byte, error) {
	return c.reduceTree(root, append([]byte(nil), data...), nil, fn)
}

// SetRingThreshold pins both ring crossovers of c's rank to n bytes: 0 sends
// every ring-capable collective down the ring, a negative n down the tree.
// Every rank calls it before its first collective.
func SetRingThreshold(c *Comm, n int) {
	c.env.ringAllgather, c.env.ringAllreduce = n, n
}

// SetFlat keeps c off the two-level algorithms whatever hosts it spans.
// Every rank calls it before its first collective on c.
func SetFlat(c *Comm) { c.noHier = true }
