// tdn::ckpt — crash-safe snapshot files for long serving runs.
//
// On-disk format (version 1), written via tdn::write_file
// (unique temp file + fsync + atomic rename, so a host crash or SIGKILL
// can publish either the previous file or the complete new one, never a
// torn hybrid):
//
//   offset  size  field
//        0     8  magic "TDNCKPT\n"
//        8     4  format version (1)
//       12     4  flags (bit 0: emergency snapshot taken on interrupt)
//       16     8  RunConfig fingerprint of the producing run
//       24     8  simulated cycle of the quiescent point
//       32     8  payload size in bytes
//       40     8  FNV-1a 64 hash of the payload
//       48     -  payload (ckpt::Encoder bytes; serve_system.cpp owns the
//                 schema — see docs/serving.md §snapshot format)
//
// Readers validate magic, version, fingerprint, declared size and checksum
// before trusting one byte of payload; anything off marks the file invalid
// and the loader falls back to the next-newest snapshot in the directory.
// Snapshots are named snap-<fingerprint>-<cycle>.ckpt, so one directory can
// hold checkpoints of many configurations side by side.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/options.hpp"
#include "common/types.hpp"

namespace tdn::ckpt {

inline constexpr std::uint32_t kFormatVersion = 1;

/// A validated snapshot: header fields plus the checksum-verified payload.
struct Snapshot {
  std::uint64_t config_fingerprint = 0;
  Cycle cycle = 0;
  bool emergency = false;  ///< written on SIGINT/SIGTERM, off-cadence
  std::string payload;
  std::string path;  ///< file it was loaded from (empty when in-memory)
};

/// Serialize and durably publish one snapshot into @p opts.dir, then prune
/// all but the newest opts.keep snapshots of this fingerprint. Returns the
/// published path, or nullopt on I/O failure (simulation continues; a
/// checkpoint that cannot be written must never kill the run).
///
/// Test hook: when the environment variable TDN_CKPT_EXIT_AFTER=N is set,
/// the process calls _exit(137) immediately after the Nth successful
/// publish — a deterministic stand-in for SIGKILL used by the CI
/// kill-and-resume smoke job.
std::optional<std::string> write_snapshot(const Options& opts,
                                          std::uint64_t config_fingerprint,
                                          Cycle cycle,
                                          const std::string& payload,
                                          bool emergency = false);

/// Validate and load one snapshot file. Returns nullopt (with the reason in
/// @p why, if given) on any validation failure — wrong magic/version,
/// fingerprint mismatch, truncation, checksum failure.
std::optional<Snapshot> load_file(const std::string& path,
                                  std::uint64_t config_fingerprint,
                                  std::string* why = nullptr);

/// Scan @p dir for snapshots of @p config_fingerprint and return the
/// highest-cycle *valid* one, skipping (never trusting) corrupt or torn
/// files. @p skipped, when non-null, collects "path: reason" lines for the
/// files that failed validation.
std::optional<Snapshot> load_latest(const std::string& dir,
                                    std::uint64_t config_fingerprint,
                                    std::vector<std::string>* skipped = nullptr);

/// All valid snapshots of @p config_fingerprint in @p dir, by ascending
/// cycle (tests resume from mid-run snapshots, not just the newest).
std::vector<Snapshot> load_all(const std::string& dir,
                               std::uint64_t config_fingerprint);

// --- cooperative interruption (bench signal handler → serving loop) ------

/// Thrown by the serving loop after it honors an interrupt request: the
/// final checkpoint (if configured) is already on disk when this escapes.
class InterruptedError : public RequireError {
 public:
  explicit InterruptedError(const std::string& what) : RequireError(what) {}
};

/// Async-signal-safe: sets a sig_atomic_t flag. Installed by the bench
/// SIGINT/SIGTERM handler (bench_common.hpp); polled by ServeSystem at its
/// control events.
void request_interrupt() noexcept;
bool interrupt_requested() noexcept;
void clear_interrupt() noexcept;

}  // namespace tdn::ckpt
