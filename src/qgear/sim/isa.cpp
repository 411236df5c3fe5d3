#include "qgear/sim/isa.hpp"

#include <atomic>
#include <cstdlib>

#include "qgear/common/log.hpp"
#include "qgear/common/strings.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define QGEAR_ISA_X86 1
#endif

namespace qgear::sim {

namespace {

Isa detect_best() {
#ifdef QGEAR_ISA_X86
  __builtin_cpu_init();
  const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  // The AVX-512 table hands some calls to the AVX2 one, so needs both.
  if (avx2 && __builtin_cpu_supports("avx512f")) return Isa::avx512;
  if (avx2) return Isa::avx2;
  if (__builtin_cpu_supports("sse2")) return Isa::sse2;
#endif
  return Isa::scalar;
}

Isa clamp_to_supported(Isa requested) {
  const Isa best = best_supported_isa();
  if (static_cast<int>(requested) <= static_cast<int>(best)) return requested;
  log::warn(strfmt("isa: %s requested but host supports at most %s; "
                   "falling back",
                   isa_name(requested), isa_name(best)));
  return best;
}

Isa initial_isa() {
  const char* env = std::getenv("QGEAR_ISA");
  if (env == nullptr || *env == '\0') return best_supported_isa();
  const std::string value(env);
  if (value == "auto") return best_supported_isa();
  Isa requested;
  if (!parse_isa(value, &requested)) {
    log::warn(strfmt("isa: unknown QGEAR_ISA value '%s' "
                     "(want scalar|sse2|avx2|avx512|auto); using auto",
                     value.c_str()));
    return best_supported_isa();
  }
  return clamp_to_supported(requested);
}

std::atomic<Isa>& isa_slot() {
  static std::atomic<Isa> slot{initial_isa()};
  return slot;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::scalar:
      return "scalar";
    case Isa::sse2:
      return "sse2";
    case Isa::avx2:
      return "avx2";
    case Isa::avx512:
      return "avx512";
  }
  return "unknown";
}

bool parse_isa(const std::string& name, Isa* out) {
  if (name == "scalar") {
    *out = Isa::scalar;
  } else if (name == "sse2") {
    *out = Isa::sse2;
  } else if (name == "avx2") {
    *out = Isa::avx2;
  } else if (name == "avx512") {
    *out = Isa::avx512;
  } else {
    return false;
  }
  return true;
}

Isa best_supported_isa() {
  static const Isa best = detect_best();
  return best;
}

bool isa_supported(Isa isa) {
  return static_cast<int>(isa) <= static_cast<int>(best_supported_isa());
}

Isa active_isa() {
  return isa_slot().load(std::memory_order_relaxed);
}

Isa set_active_isa(Isa isa) {
  const Isa applied = clamp_to_supported(isa);
  isa_slot().store(applied, std::memory_order_relaxed);
  return applied;
}

}  // namespace qgear::sim
