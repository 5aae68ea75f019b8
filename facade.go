package repro

// Facade re-exports for the subsystems a downstream user needs alongside
// the tomography pipeline: measurement archival and topology-aware
// collective scheduling. Everything is a thin alias over the internal
// packages so external importers of module "repro" can reach them.
//
// All entry points here operate on completed results and are agnostic to
// how the measurement ran: a Result produced with Options.Workers > 1 is
// bit-identical to a single-worker one, so archived graphs, bottleneck
// reports and collective schedules never depend on the worker count.

import (
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/persist"
)

// MeasurementGraph is the aggregated w(e) graph produced by Run (also the
// type of Result.Graph).
type MeasurementGraph = graph.Graph

// SaveMeasurement archives a measurement graph as JSON, so the analysis
// phase can be re-run later without re-measuring (see also
// `bttomo -save/-load`).
func SaveMeasurement(path string, g *MeasurementGraph) error {
	return persist.SaveGraph(path, g)
}

// LoadMeasurement reads an archived measurement graph.
func LoadMeasurement(path string) (*MeasurementGraph, error) {
	return persist.LoadGraph(path)
}

// SaveSpec writes a scenario spec to a JSON file — the declarative
// interchange format for scenarios (`bttomo -spec`, LoadSpec).
func SaveSpec(path string, s *Spec) error {
	return persist.SaveSpec(path, s)
}

// LoadSpec reads and validates a scenario spec from a JSON file. The
// loaded spec can be run directly (RunSpec) or added to the registry
// (RegisterSpec).
func LoadSpec(path string) (*Spec, error) {
	return persist.LoadSpec(path)
}

// Boundary describes the measured traffic across one discovered cluster
// boundary — an explicit bottleneck report.
type Boundary = core.Boundary

// Bottlenecks summarises every cluster boundary of a result: which
// cluster pairs are separated and how starved their cross traffic is
// relative to intra-cluster traffic (the paper's "correctly identified
// communication bottleneck links", §V).
func Bottlenecks(res *Result) []Boundary {
	return core.Bottlenecks(res.Graph, res.Partition)
}

// Schedule is a staged collective-communication plan: stages run
// sequentially, transfers within a stage run concurrently.
type Schedule = collective.Schedule

// Transfer is one point-to-point message within a Schedule stage.
type Transfer = collective.Transfer

// CollectiveResult reports an executed schedule's timing.
type CollectiveResult = collective.Result

// BroadcastBinomial builds the topology-agnostic binomial-tree broadcast
// over the given host order (first entry is the root).
func BroadcastBinomial(order []int) (Schedule, error) {
	return collective.BroadcastBinomial(order)
}

// BroadcastClusterAware builds a hierarchical broadcast over logical
// clusters (e.g. Result.Partition.Clusters()): each inter-cluster
// bottleneck is crossed exactly once.
func BroadcastClusterAware(clusters [][]int, root int) (Schedule, error) {
	return collective.BroadcastClusterAware(clusters, root)
}

// ReduceClusterAware builds the hierarchical reduction dual to
// BroadcastClusterAware.
func ReduceClusterAware(clusters [][]int, root int) (Schedule, error) {
	return collective.ReduceClusterAware(clusters, root)
}

// ExecuteBroadcast validates and runs a broadcast schedule on a dataset's
// network, returning its completion time.
func ExecuteBroadcast(d *Dataset, sched Schedule, root int, bytes float64) (CollectiveResult, error) {
	return collective.ExecuteBroadcast(d.Eng, d.Net, d.Hosts, sched, root, bytes)
}

// ExecuteReduce validates and runs a reduce schedule on a dataset's
// network.
func ExecuteReduce(d *Dataset, sched Schedule, root int, bytes float64) (CollectiveResult, error) {
	return collective.ExecuteReduce(d.Eng, d.Net, d.Hosts, sched, root, bytes)
}
