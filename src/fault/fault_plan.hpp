// FaultPlan — a deterministic schedule of hardware faults, parsed from the
// config/CLI DSL (docs/faults.md):
//
//   plan    := event (',' event)*
//   event   := kind '@' target (':' param)*
//   kind    := bank_fail | bank_slow | link_fail | link_degrade
//            | rrt_flip | rrt_evict | dram_stall
//   target  := <bank index> | bank<N> | core<N> | mc<N>
//            | '(' x ',' y ')' '-' '(' x ',' y ')'      (mesh link)
//   param   := cycle=<N[k|M|G]> | x<factor> | len=<N[k|M|G]>
//
// Example: "bank_fail@3:cycle=1M,link_degrade@(1,2)-(2,2):x4,
//           rrt_flip@core5:cycle=2M".
//
// Plans are part of SystemConfig and feed the config fingerprint, so fault
// runs are cacheable and bit-reproducible; any randomness (which RRT entry a
// flip hits, which bit it flips) comes from a PRNG seeded by the plan's
// canonical string and the configured seed, never from wall-clock state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tdn::fault {

enum class FaultKind {
  BankFail,     ///< LLC bank stops serving; resident lines evacuated
  BankSlow,     ///< LLC bank service interval multiplied by `factor`
  LinkFail,     ///< mesh link (both directions) stops forwarding
  LinkDegrade,  ///< mesh link serialization multiplied by `factor`
  RrtFlip,      ///< soft error flips one mask bit of one RRT entry
  RrtEvict,     ///< one RRT entry force-evicted (parity scrub)
  DramStall,    ///< memory controller refuses new requests for `len` cycles
};

const char* to_string(FaultKind k);

struct FaultEvent {
  FaultKind kind = FaultKind::BankFail;
  Cycle at = 0;        ///< injection cycle (param `cycle=`, default 0)
  unsigned unit = 0;   ///< bank / core / mc index (non-link kinds)
  unsigned ax = 0, ay = 0, bx = 0, by = 0;  ///< link endpoints (link kinds)
  unsigned factor = 1;      ///< slow-down / degrade multiplier (param `x<N>`)
  Cycle length = 0;         ///< stall length in cycles (param `len=`)
};

/// The event's canonical spelling, e.g. "bank_fail@3:cycle=1000".
std::string to_string(const FaultEvent& ev);

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parse the DSL. Throws tdn::RequireError with a pointer to the offending
  /// token on malformed input. An empty spec yields an empty plan.
  static FaultPlan parse(const std::string& spec);

  const std::vector<FaultEvent>& events() const noexcept { return events_; }
  bool empty() const noexcept { return events_.empty(); }

  /// Stable, whitespace-normalized re-serialization of the plan; feeds the
  /// SystemConfig fingerprint and seeds the injector PRNG.
  std::string canonical() const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace tdn::fault
