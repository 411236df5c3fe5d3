// Distributed statevector as a sim::Backend.
//
// qgear_dist layers above qgear_sim, so the backend cannot self-register
// from the sim registry's translation unit — call register_dist_backend()
// once at program start (the CLI tools and dist tests do) and "dist"
// becomes creatable like any other name:
//
//   qgear::dist::register_dist_backend();
//   auto be = qgear::sim::Backend::create("dist", opts);
//
// apply_circuit accumulates the composed circuit. The first sample() or
// expectation() after the last init_state or apply_circuit runs it once
// through run_distributed across BackendOptions::dist_ranks SPMD ranks
// and gathers the final state; every later query reads that state, as
// the in-process statevector backends do. Both queries therefore gather
// the full state, so the backend answers them up to 28 qubits. No
// caller samples it above that: the CLI also reads <Z> on every qubit,
// which gathers anyway; serve refuses dist jobs; route only prices dist.
#pragma once

#include "qgear/sim/backend.hpp"

namespace qgear::dist {

/// Registers the "dist" backend factory with sim::Backend. Idempotent.
void register_dist_backend();

}  // namespace qgear::dist
