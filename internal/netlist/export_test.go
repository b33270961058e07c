package netlist

// Test-only access for the external netlist_test package (the
// ingestion golden imports iscas, which imports netlist).

// FuzzReadBenchSeeds is FuzzReadBench's seed corpus.
var FuzzReadBenchSeeds = fuzzReadBenchSeeds

// NextGenName draws the next generated name with the given prefix,
// advancing the circuit's counter exactly as a mutator would.
func NextGenName(c *Circuit, prefix string) string { return c.genName(prefix, "") }
