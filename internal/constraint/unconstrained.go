package constraint

import "repro/internal/ir"

// unconstrainedValue is the canonical binding for variables whose value
// cannot influence a solution (they occur only beneath satisfied
// disjunctions). Using one marker makes otherwise-identical solutions
// collapse in deduplication.
type unconstrainedValue struct{}

// Type implements ir.Value.
func (unconstrainedValue) Type() *ir.Type { return ir.Void }

// Name implements ir.Value.
func (unconstrainedValue) Name() string { return "?" }

// Operand implements ir.Value.
func (unconstrainedValue) Operand() string { return "?" }

// Unconstrained is the singleton marker value.
var Unconstrained ir.Value = unconstrainedValue{}
