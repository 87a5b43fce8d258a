package campaign

// RunOne exposes one experiment of a plan to the allocation gate
// (TestExperimentAllocCeiling), which times experiments one at a time rather
// than through a shard.
var RunOne = (*ShardPlan).runOne
