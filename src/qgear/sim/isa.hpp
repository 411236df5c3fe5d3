// Runtime CPU-feature detection and kernel ISA selection.
//
// The amplitude-sweep kernels exist in one portable scalar variant plus
// vectorized variants (SSE2, AVX2+FMA, AVX-512F on x86). The active
// variant is chosen once at startup from cpuid, can be pinned via the
// QGEAR_ISA environment variable (scalar|sse2|avx2|avx512|auto), and can
// be switched
// programmatically for tests. Requests for an ISA the host cannot run are
// clamped down to the best supported one, so QGEAR_ISA never crashes a
// binary — it only ever slows it down.
#pragma once

#include <string>

namespace qgear::sim {

/// Kernel instruction-set variants, ordered weakest to strongest.
enum class Isa : int {
  scalar = 0,  ///< portable C++, the correctness baseline
  sse2 = 1,    ///< 128-bit vectors (x86-64 baseline)
  avx2 = 2,    ///< 256-bit vectors + FMA
  avx512 = 3,  ///< 512-bit vectors (AVX-512F), above the AVX2 table
};

inline constexpr int kNumIsas = 4;

/// Short lowercase name ("scalar", "sse2", "avx2", "avx512").
const char* isa_name(Isa isa);

/// Parses an ISA name (as accepted by QGEAR_ISA, minus "auto").
/// Returns false on unknown input.
bool parse_isa(const std::string& name, Isa* out);

/// Strongest ISA this host can execute (cpuid-derived; scalar off-x86).
Isa best_supported_isa();

/// True if the host can execute kernels built for `isa`.
bool isa_supported(Isa isa);

/// The ISA the dispatched kernels currently use. First call resolves
/// QGEAR_ISA (unset/"auto" means best_supported_isa(); unsupported or
/// unknown values are clamped/ignored with a warning).
Isa active_isa();

/// Forces the active ISA (clamped to best_supported_isa()); returns the
/// ISA actually applied. Intended for tests and calibration — do not call
/// concurrently with running sweeps.
Isa set_active_isa(Isa isa);

}  // namespace qgear::sim
