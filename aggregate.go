package sampleview

import (
	"sampleview/internal/aqp"
	"sampleview/internal/record"
)

// Approximate aggregate queries (online aggregation) over a view. The
// types re-export internal/aqp so that callers can build queries without
// touching internal packages.
type (
	// AggQuery is an approximate aggregate query: predicate, aggregates,
	// optional GROUP BY, confidence level and stopping rule.
	AggQuery = aqp.Query
	// AggSpec is one requested aggregate column.
	AggSpec = aqp.Aggregate
	// AggKind selects COUNT/SUM/AVG/MIN/MAX.
	AggKind = aqp.AggKind
	// AggResult is a running or final snapshot of the estimates.
	AggResult = aqp.Result
	// AggEstimate is one aggregate's value with its confidence interval.
	AggEstimate = aqp.Estimate
	// AggGroup is one GROUP BY partition of a result.
	AggGroup = aqp.Group
)

// Aggregate kinds.
const (
	Count    = aqp.Count
	Sum      = aqp.Sum
	Avg      = aqp.Avg
	Min      = aqp.Min
	Max      = aqp.Max
	Quantile = aqp.Quantile
)

// aqpSource adapts a View to the engine's Source interface.
type aqpSource struct{ v *View }

func (s aqpSource) SampleStream(q record.Box) (aqp.Stream, error) { return s.v.Query(q) }
func (s aqpSource) EstimateCount(q record.Box) (float64, error)   { return s.v.EstimateCount(q) }

// RunQuery evaluates an approximate aggregate query against the view,
// streaming samples until the stopping rule fires or the predicate is
// exhausted (in which case the result is exact).
func (v *View) RunQuery(q AggQuery) (*AggResult, error) {
	return aqp.Run(aqpSource{v}, q)
}

// AQPSource returns the view as an aqp.Source, for callers that drive the
// aggregate engine directly and swap local and remote sources (for
// example, sv query with and without -connect).
func (v *View) AQPSource() aqp.Source { return aqpSource{v} }
