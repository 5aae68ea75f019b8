package core

// Fluent option derivation: each With* method returns a modified copy,
// so a configuration reads as one expression from DefaultOptions() —
//
//	opts := core.DefaultOptions().WithWorkers(4).WithIterations(10)
//
// — and never mutates a shared value. Only the axes callers commonly
// override get a method; everything else stays a plain field set, which
// composes with the fluent chain (the chain produces a value).

// WithWorkers returns a copy of o with the measurement fanned out over
// n workers (see Options.Workers for the bit-identity contract; any n
// produces identical results, only wall-clock changes).
func (o Options) WithWorkers(n int) Options {
	o.Workers = n
	return o
}

// WithIterations returns a copy of o with the measurement budget set to
// n broadcasts (the paper uses 30–36).
func (o Options) WithIterations(n int) Options {
	o.Iterations = n
	return o
}

// WithSeed returns a copy of o with the RNG seed set. A fixed seed
// makes the whole run deterministic.
func (o Options) WithSeed(seed int64) Options {
	o.Seed = seed
	return o
}

// WithBackend returns a copy of o measuring through the named substrate
// ("sim" or "wire"; see Options.Backend for what each supports).
func (o Options) WithBackend(name string) Options {
	o.Backend = name
	return o
}
