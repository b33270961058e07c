package leakage

// AssignCounted is AssignSession that also returns the number of nodes
// the pass's timing trials recomputed.
var AssignCounted = assign
