// Atomic, durable file publication for every artifact the simulator writes:
// the results cache, checkpoint snapshots, the latency report and every
// observability sink (trace, epochs, heatmaps).
#pragma once

#include <string>

namespace tdn {

/// Write @p content to @p path via a uniquely named temp file in the same
/// directory, fsync'd, then an atomic rename and a best-effort fsync of the
/// directory: concurrent readers see either the old complete file or the
/// new complete file, never a torn one, and a host crash after a true
/// return cannot lose the data. Parent directories are created on demand.
/// Returns false on any I/O failure (nothing is left behind at @p path
/// beyond what was already there).
bool write_file(const std::string& path, const std::string& content);

}  // namespace tdn
