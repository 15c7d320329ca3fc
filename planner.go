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

// explicitEngine reports whether the configuration already pins an engine —
// streaming, a candidate budget, ANN, or quantization. Under Auto, any
// explicit engine knob takes precedence and the planner is bypassed
// entirely, so existing configurations and conformance pins are untouched.
func (c PipelineConfig) explicitEngine() bool {
	return c.Streaming || c.CandidateBudget > 0 || c.ANN != nil || c.Quant != nil || c.Shards > 0
}

// applyPlanKnobs copies a chosen plan's knobs onto the configuration — the
// exact fields a hand-written config would set, so a planner-chosen run is
// bit-identical to its explicitly configured twin.
func (c *PipelineConfig) applyPlanKnobs(k plan.Knobs) {
	c.Streaming = k.Streaming
	c.CandidateBudget = k.CandidateBudget
	if k.Clusters > 0 {
		c.ANN = &ANNConfig{Clusters: k.Clusters, NProbe: k.NProbe}
	}
	if k.Quant {
		c.Quant = &QuantConfig{RerankFactor: k.RerankFactor}
	}
	if k.Shards > 0 {
		c.Shards = k.Shards
	}
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
