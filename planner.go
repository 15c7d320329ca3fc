package entmatcher

import "entmatcher/internal/plan"

// DefaultCalibration returns the planner's calibration, plan.Defaults — the
// one coefficient table the pipeline's Auto mode and entserver plan from.
// It is the facade for callers outside the module's internal tree; the error
// result is always nil and stays in the signature only because the benchmark
// harness (benchmark/probes.go, frozen between benchmark-only PRs) calls it
// in this two-value form.
func DefaultCalibration() (plan.Calibration, error) {
	return plan.Defaults(), nil
}

// planWorkload assembles the planner input for a prepared task shape.
func (c PipelineConfig) planWorkload(srcRows, tgtRows, dim int) plan.Workload {
	return plan.Workload{
		SrcRows:           srcRows,
		TgtRows:           tgtRows,
		Dim:               dim,
		MemoryBudgetBytes: c.MemoryBudgetBytes,
		TargetRecall:      c.TargetRecall,
	}
}
