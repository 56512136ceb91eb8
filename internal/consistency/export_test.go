package consistency

// Test-only exports for the consistency_test package, whose tests need
// netsim (which imports this package) alongside the internals.
var (
	// SerialLogicCheck solves a logic program one reference at a time
	// on one solver, the serial check the logic engine is held to.
	SerialLogicCheck = serialLogicCheck
	// ContainedBy returns every X with pred(X, party) provable.
	ContainedBy = containedBy
	// ModelParties lists the model's domains, systems and instances.
	ModelParties = modelParties
)
