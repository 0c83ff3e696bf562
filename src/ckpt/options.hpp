// Checkpoint configuration carried by harness::RunConfig.
//
// The cadence knob is *behavioral*: reaching a quiescent point means the
// serving loop pauses dispatch, drains in-flight work and cold-normalizes
// the machine (serve_system.cpp §checkpointing), which changes downstream
// timing. It therefore enters RunConfig::fingerprint() via canonical().
// Counters are not touched: a snapshot records their running totals.
// The I/O knobs (directory, resume, retention) only say where snapshots go
// and whether to load one — two runs differing only in those produce
// bit-identical results, so they stay out of the fingerprint, like
// harness::ObsOptions.
#pragma once

#include <sstream>
#include <string>

#include "common/types.hpp"

namespace tdn::ckpt {

/// Drain-poll period while waiting for in-flight events to settle at a
/// checkpoint boundary. A constant of the schedule, like any other code:
/// changing it moves results and needs a fingerprint schema bump.
inline constexpr Cycle kSettleGrace = 256;

struct Options {
  // --- behavioral (fingerprinted) ---------------------------------------
  /// Checkpoint cadence in simulated cycles; 0 disables checkpointing.
  /// At each multiple the serving loop drains to a quiescent point,
  /// cold-normalizes the machine and snapshots. The headline
  /// guarantee — interrupted+resumed == uninterrupted, bit for bit — holds
  /// between runs with the *same* cadence.
  Cycle every = 0;

  // --- I/O only (not fingerprinted) -------------------------------------
  /// Snapshot directory; empty with every > 0 means "drain and normalize
  /// but write nothing" (useful in tests of the checkpoint path itself).
  std::string dir;
  /// Load the newest valid snapshot from `dir` before running.
  bool resume = false;
  /// Completed snapshots retained on disk (older ones are pruned after a
  /// successful write). At least 2, so a torn newest file always leaves a
  /// previous good snapshot to fall back to.
  unsigned keep = 2;

  bool enabled() const noexcept { return every > 0; }
  /// Behavioral fields only, e.g. "ck300000" — appended to the
  /// RunConfig fingerprint string when enabled() (a disabled checkpoint
  /// leaves existing fingerprints untouched).
  std::string canonical() const {
    std::ostringstream os;
    os << "ck" << every;
    return os.str();
  }
};

}  // namespace tdn::ckpt
