package core

// The two orderings the reference bodies in reference_test.go pin, exposed to
// the external test package.
var (
	PartitionBatches = partitionBatches
	ByTopScore       = byTopScore
)
