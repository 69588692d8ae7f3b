package stm

// SetSnapshotChainDepth replaces rt's version-chain bound for the external
// test package. Call it before rt runs a transaction.
func SetSnapshotChainDepth(rt *Runtime, depth int) { rt.snapDepth = depth }
