package service

// The JSON bodies of the /v1 endpoints. Field vocabulary deliberately
// mirrors jobench.Options and the CLI's plan flags — the same strings the
// flags accept ("postgres", "pkfk", "bushy", "dp", ...) are valid here, and
// zero values select the same defaults the CLI uses.

// PlanRequest selects a world (workload, seed, scale → pool key) and one
// optimization's knobs. Omitted workload/seed/scale fall back to the
// server's defaults.
type PlanRequest struct {
	// Workload names the benchmark world ("imdb", "tpch", "imdb-skew");
	// omitted falls back to the server's default workload.
	Workload string  `json:"workload,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Scale    float64 `json:"scale,omitempty"`

	// Query is a workload query id ("1a".."33c" for imdb, "tpch3".."tpch19"
	// for tpch).
	Query string `json:"query"`
	// Estimator: postgres|dbms-a|dbms-b|dbms-c|hyper|true (default postgres).
	Estimator string `json:"estimator,omitempty"`
	// CostModel: simple|postgres|tuned (default simple).
	CostModel string `json:"cost_model,omitempty"`
	// Indexes: none|pk|pkfk (default pkfk).
	Indexes string `json:"indexes,omitempty"`
	// DisableNestedLoops omits non-indexed nested-loop joins; omitted means
	// true, the CLI's default.
	DisableNestedLoops *bool `json:"disable_nested_loops,omitempty"`
	// Shape: bushy|leftdeep|rightdeep|zigzag (default bushy).
	Shape string `json:"shape,omitempty"`
	// Algorithm: dp|dpccp|quickpick|goo (default dp).
	Algorithm string `json:"algorithm,omitempty"`
	// PlanSeed drives randomized enumerators (quickpick).
	PlanSeed int64 `json:"plan_seed,omitempty"`
	// Adaptive consults the plan-feedback cache before planning: observed
	// cardinalities from earlier adaptive executions of the same query
	// fingerprint are pinned over the estimator. On /v1/execute it also
	// enables mid-execution re-optimization.
	Adaptive bool `json:"adaptive,omitempty"`
}

// OptimizeResponse is one planned query. FeedbackHit and Pinned are present
// exactly when the request was adaptive.
type OptimizeResponse struct {
	// Workload echoes the resolved workload the plan was built against.
	Workload string  `json:"workload"`
	Query    string  `json:"query"`
	Plan     string  `json:"plan"`
	Cost     float64 `json:"cost"`
	// FeedbackHit reports whether the plan-feedback cache held observations
	// for this query.
	FeedbackHit *bool `json:"feedback_hit,omitempty"`
	// Pinned is the number of observed cardinalities injected over the
	// estimator.
	Pinned *int `json:"pinned,omitempty"`
}

// ExecuteRequest is PlanRequest plus the engine knobs.
type ExecuteRequest struct {
	PlanRequest
	// Rehash lets hash joins grow at runtime; omitted means true, the
	// CLI's default.
	Rehash *bool `json:"rehash,omitempty"`
	// WorkLimit aborts after this many work units (0 = unlimited).
	WorkLimit int64 `json:"work_limit,omitempty"`
	// QErrThreshold is the q-error above which an adaptive execution
	// replans (0 = the reopt default of 2). Ignored unless adaptive.
	QErrThreshold float64 `json:"qerr_threshold,omitempty"`
	// MaxReplans bounds re-optimizations per adaptive execution (0 = the
	// reopt default of 4). Ignored unless adaptive.
	MaxReplans int `json:"max_replans,omitempty"`
	// Explain selects an instrumented execution: "analyze" collects
	// per-operator actuals and adds the analyze/nodes fields to the
	// response. Incompatible with adaptive.
	Explain string `json:"explain,omitempty"`
}

// ExecuteResponse is one executed query. Replans, FeedbackHit and Pinned
// are present exactly when the request was adaptive.
type ExecuteResponse struct {
	// Workload echoes the resolved workload the query ran against.
	Workload string `json:"workload"`
	Query    string `json:"query"`
	Rows     int64  `json:"rows"`
	Work     int64  `json:"work"`
	TimedOut bool   `json:"timed_out"`
	Plan     string `json:"plan"`
	// Replans counts mid-execution re-optimizations.
	Replans *int `json:"replans,omitempty"`
	// FeedbackHit reports whether planning started from cached
	// observations.
	FeedbackHit *bool `json:"feedback_hit,omitempty"`
	// Pinned is the number of cached cardinalities injected before the
	// first plan.
	Pinned *int `json:"pinned,omitempty"`
	// Analyze and Nodes are present exactly when the request asked for
	// "explain": "analyze": the EXPLAIN ANALYZE rendering and the
	// structured per-operator actuals behind it.
	Analyze string        `json:"analyze,omitempty"`
	Nodes   []ExplainNode `json:"nodes,omitempty"`
}

// ExplainNode is one operator of an instrumented execution: the
// optimizer's estimate next to the engine's measured actuals.
type ExplainNode struct {
	// ID is the operator's preorder position; Depth its tree depth.
	ID    int    `json:"id"`
	Depth int    `json:"depth"`
	Op    string `json:"op"`
	// Cond renders the scan selection or join predicates.
	Cond string `json:"cond,omitempty"`
	// EstRows is the optimizer's cardinality estimate; ActualRows the
	// measured output cardinality; QError max(est/actual, actual/est).
	EstRows    float64 `json:"est_rows"`
	ActualRows int64   `json:"actual_rows"`
	QError     float64 `json:"q_error"`
	// WorkUnits is the deterministic work charged at this operator;
	// WallMS the inclusive wall-clock milliseconds of its subtree.
	WorkUnits int64   `json:"work_units"`
	WallMS    float64 `json:"wall_ms"`
}

// ExplainResponse is one EXPLAIN ANALYZE execution (POST /v1/explain).
type ExplainResponse struct {
	// Workload echoes the resolved workload the query ran against.
	Workload string `json:"workload"`
	Query    string `json:"query"`
	// Text is the rendered tree with estimated vs actual rows and
	// per-node q-error.
	Text string `json:"text"`
	// Nodes lists every operator in preorder.
	Nodes    []ExplainNode `json:"nodes"`
	Rows     int64         `json:"rows"`
	Work     int64         `json:"work"`
	TimedOut bool          `json:"timed_out"`
}

// EstimateRequest asks one estimator for a query's result size.
type EstimateRequest struct {
	// Workload names the benchmark world; omitted falls back to the
	// server's default workload.
	Workload  string  `json:"workload,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
	Query     string  `json:"query"`
	Estimator string  `json:"estimator,omitempty"`
}

// EstimateResponse is the predicted result cardinality.
type EstimateResponse struct {
	// Workload echoes the resolved workload.
	Workload    string  `json:"workload"`
	Query       string  `json:"query"`
	Estimator   string  `json:"estimator"`
	Cardinality float64 `json:"cardinality"`
}

// QueriesResponse lists one workload's query set.
type QueriesResponse struct {
	// Workload echoes the resolved workload the queries belong to.
	Workload string   `json:"workload"`
	Count    int      `json:"count"`
	Queries  []string `json:"queries"`
}

// ExperimentResponse wraps one experiment report with its resolved world
// (format=json on /v1/experiment/{name}); the default rendering stays the
// raw text report, byte-identical to the CLI's.
type ExperimentResponse struct {
	Experiment string  `json:"experiment"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Report     string  `json:"report"`
}

// ErrorResponse is every endpoint's failure body.
type ErrorResponse struct {
	Error string `json:"error"`
}
