package mpi

// Test-only handles on two unexported collectives, for the external tests
// and benchmarks of package mpi_test: the allgather behind Split, and the
// binomial-tree reduce behind the flat and two-level allreduce, at any root.
var (
	Allgather  = (*Comm).allgather
	ReduceTree = (*Comm).reduceTree
)
