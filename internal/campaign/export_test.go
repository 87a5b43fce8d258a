package campaign

// RunTransientCheckpointed exposes one checkpointed experiment to the
// allocation gate (TestExperimentAllocCeiling), which times experiments one
// at a time rather than through a shard.
var RunTransientCheckpointed = Runner.runTransientCheckpointed
