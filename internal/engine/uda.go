package engine

// State is a UDA aggregation context. For Bismarck it is essentially the
// model plus meta data (number of gradient steps taken, running loss, ...).
type State interface{}

// UDA is the standard user-defined aggregate contract offered by every major
// RDBMS (Figure 3 of the paper): PostgreSQL calls the three functions
// 'initcond', 'sfunc' and 'finalfunc'; the optional Merge enables the
// built-in shared-nothing parallelism of the commercial engines.
type UDA interface {
	// Initialize returns a fresh aggregation state.
	Initialize() State
	// Transition folds one tuple into the state and returns the (possibly
	// same, mutated) state.
	Transition(s State, t Tuple) State
	// Terminate finishes the aggregation and returns the result.
	Terminate(s State) State
}

// Merger is implemented by UDAs that support combining two independently
// computed states — the requirement for the pure-UDA parallel plan.
type Merger interface {
	Merge(a, b State) State
}

// NullUDA is the paper's strawman aggregate: it sees every tuple but
// computes nothing. Tables 2 and 3 measure task overhead against it.
type NullUDA struct{}

// Initialize implements UDA.
func (NullUDA) Initialize() State { return nil }

// Transition implements UDA.
func (NullUDA) Transition(s State, t Tuple) State { return s }

// Terminate implements UDA.
func (NullUDA) Terminate(s State) State { return s }

// Merge implements Merger.
func (NullUDA) Merge(a, b State) State { return nil }
