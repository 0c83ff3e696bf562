// Arrival processes for tdn::serve — deterministic open-arrival traces.
//
// A spec string describes *when* requests arrive and is expanded, before the
// simulation starts, into a concrete arrival trace (cycle + tenant per
// request) by a PRNG seeded from the spec text and the run seed alone. The
// trace therefore depends only on the RunConfig — never on execution order,
// thread count or wall clock — which is what keeps serving runs bit-identical
// between serial and --jobs sweeps and safe to memoize in the results cache.
//
// Grammar (docs/serving.md has the full reference):
//
//   spec    := kind [":" key "=" value ("," key "=" value)*]
//   kind    := "poisson" | "mmpp" | "diurnal" | "fixed"
//   value   := number with optional k (x1e3) / M (x1e6) / G (x1e9) suffix
//
//   poisson:gap=40k            exponential inter-arrivals, mean 40k cycles
//   fixed:gap=40k              deterministic inter-arrivals (closed-form)
//   mmpp:gap=80k,burst=8k,dwell=120k
//                              2-state Markov-modulated Poisson process:
//                              calm state mean gap `gap`, burst state mean
//                              gap `burst`, exponential state dwell `dwell`
//   diurnal:gap=40k,amp=0.8,period=300k
//                              sinusoid-modulated Poisson ("day/night"
//                              replay): rate (1 + amp*sin(2*pi*t/period))/gap,
//                              realized by thinning against the peak rate
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace tdn::serve {

enum class ArrivalKind : std::uint8_t { Poisson, Mmpp, Diurnal, Fixed };

const char* to_string(ArrivalKind k);

/// One request in the expanded trace.
struct Arrival {
  Cycle cycle = 0;
  unsigned tenant = 0;
};

struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::Poisson;
  Cycle gap = 40'000;     ///< mean inter-arrival (calm state for mmpp)
  Cycle burst = 8'000;    ///< mmpp: burst-state mean inter-arrival
  Cycle dwell = 120'000;  ///< mmpp: mean dwell per state
  Cycle period = 300'000; ///< diurnal: modulation period
  double amp = 0.8;       ///< diurnal: modulation amplitude in [0, 1)

  /// Parse the DSL; unknown kinds/keys and zero gaps fail loudly with the
  /// grammar in the message (a typo must not become an empty trace).
  static ArrivalSpec parse(std::string_view text);

  /// Expand into a concrete trace over [0, horizon). Tenants are drawn per
  /// arrival with the given weights (size = tenant count, all >= 1). The
  /// generator is seeded from @p seed and the spec fields alone.
  std::vector<Arrival> generate(Cycle horizon, const std::vector<unsigned>& weights,
                                std::uint64_t seed) const;
};

/// Parse a colon-joined weight string ("3:1") into per-tenant weights;
/// empty input yields `num_tenants` equal weights. Component count and
/// zero weights are validated loudly.
std::vector<unsigned> parse_weights(std::string_view text, unsigned num_tenants);

}  // namespace tdn::serve
