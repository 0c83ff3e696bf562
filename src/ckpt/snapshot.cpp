#include "ckpt/snapshot.hpp"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/prng.hpp"
#include "common/write_file.hpp"

namespace tdn::ckpt {

namespace {

constexpr char kMagic[8] = {'T', 'D', 'N', 'C', 'K', 'P', 'T', '\n'};
constexpr std::size_t kHeaderSize = 48;
constexpr std::uint32_t kFlagEmergency = 1u;

std::string fingerprint_hex(std::uint64_t fp) {
  std::ostringstream os;
  os << std::hex << fp;
  return os.str();
}

std::string snapshot_name(std::uint64_t fp, Cycle cycle) {
  std::ostringstream os;
  // Zero-padded cycle so lexicographic file order matches cycle order.
  os << "snap-" << fingerprint_hex(fp) << "-";
  os.width(20);
  os.fill('0');
  os << cycle;
  os << ".ckpt";
  return os.str();
}

/// Parse "snap-<fp>-<cycle>.ckpt"; false if the name is not ours.
bool parse_name(const std::string& name, std::uint64_t fp, Cycle& cycle) {
  const std::string prefix = "snap-" + fingerprint_hex(fp) + "-";
  if (name.size() <= prefix.size() + 5) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - 5, 5, ".ckpt") != 0) return false;
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - 5);
  cycle = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    cycle = cycle * 10 + static_cast<Cycle>(c - '0');
  }
  return true;
}

/// Every snapshot file of @p fp in @p dir, by ascending cycle. An unreadable
/// directory lists nothing.
std::vector<std::filesystem::path> list_snapshots(const std::string& dir,
                                                  std::uint64_t fp) {
  namespace fs = std::filesystem;
  std::vector<std::pair<Cycle, fs::path>> have;
  std::error_code ec;
  for (const auto& ent : fs::directory_iterator(dir, ec)) {
    Cycle c = 0;
    if (parse_name(ent.path().filename().string(), fp, c))
      have.emplace_back(c, ent.path());
  }
  std::sort(have.begin(), have.end());
  std::vector<fs::path> out;
  out.reserve(have.size());
  for (auto& h : have) out.push_back(std::move(h.second));
  return out;
}

/// Kill-and-resume CI hook: _exit(137) right after the Nth publish, the
/// deterministic equivalent of a SIGKILL landing between two checkpoints.
void maybe_exit_after_publish() {
  static int budget = [] {
    const char* v = std::getenv("TDN_CKPT_EXIT_AFTER");
    return v != nullptr ? std::atoi(v) : 0;
  }();
  if (budget <= 0) return;
  if (--budget == 0) ::_exit(137);
}

volatile std::sig_atomic_t g_interrupt = 0;

}  // namespace

void request_interrupt() noexcept { g_interrupt = 1; }
bool interrupt_requested() noexcept { return g_interrupt != 0; }
void clear_interrupt() noexcept { g_interrupt = 0; }

std::optional<std::string> write_snapshot(const Options& opts,
                                          std::uint64_t config_fingerprint,
                                          Cycle cycle,
                                          const std::string& payload,
                                          bool emergency) {
  if (opts.dir.empty()) return std::nullopt;
  std::string bytes(kMagic, sizeof kMagic);
  {
    Encoder e;
    e.u32(kFormatVersion);
    e.u32(emergency ? kFlagEmergency : 0u);
    e.u64(config_fingerprint);
    e.u64(cycle);
    e.u64(payload.size());
    e.u64(fnv1a64(payload.data(), payload.size()));
    bytes += e.bytes();
  }
  bytes += payload;

  namespace fs = std::filesystem;
  const fs::path path =
      fs::path(opts.dir) / snapshot_name(config_fingerprint, cycle);
  // write_file fsyncs the temp file before the rename (docs/harness.md
  // §durability): after it returns true the snapshot is complete on disk,
  // and a crash mid-write leaves only the previous snapshots behind.
  if (!write_file(path.string(), bytes)) return std::nullopt;

  // Prune: keep the newest opts.keep snapshots of this fingerprint. Errors
  // here are ignored — retention is best-effort, correctness only needs the
  // newly published file.
  const unsigned keep = std::max(2u, opts.keep);
  const auto have = list_snapshots(opts.dir, config_fingerprint);
  std::error_code ec;
  for (std::size_t i = 0; i + keep < have.size(); ++i) fs::remove(have[i], ec);

  maybe_exit_after_publish();
  return path.string();
}

std::optional<Snapshot> load_file(const std::string& path,
                                  std::uint64_t config_fingerprint,
                                  std::string* why) {
  auto fail = [&](const std::string& reason) -> std::optional<Snapshot> {
    if (why != nullptr) *why = reason;
    return std::nullopt;
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("unreadable");
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (bytes.size() < kHeaderSize) return fail("truncated header");
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0)
    return fail("bad magic");
  Decoder d(bytes.data() + sizeof kMagic, kHeaderSize - sizeof kMagic);
  Snapshot s;
  try {
    const std::uint32_t version = d.u32();
    if (version != kFormatVersion)
      return fail("unsupported version " + std::to_string(version));
    const std::uint32_t flags = d.u32();
    s.emergency = (flags & kFlagEmergency) != 0;
    s.config_fingerprint = d.u64();
    if (s.config_fingerprint != config_fingerprint)
      return fail("fingerprint mismatch");
    s.cycle = d.u64();
    const std::uint64_t payload_size = d.u64();
    const std::uint64_t payload_hash = d.u64();
    if (bytes.size() != kHeaderSize + payload_size)
      return fail("truncated payload");
    s.payload = bytes.substr(kHeaderSize);
    if (fnv1a64(s.payload.data(), s.payload.size()) != payload_hash)
      return fail("checksum mismatch");
  } catch (const SnapshotError& e) {
    return fail(e.what());
  }
  s.path = path;
  return s;
}

std::optional<Snapshot> load_latest(const std::string& dir,
                                    std::uint64_t config_fingerprint,
                                    std::vector<std::string>* skipped) {
  const auto have = list_snapshots(dir, config_fingerprint);
  // Newest first: the first file that validates wins; invalid newer files
  // (torn by a crash mid-publish on a non-atomic filesystem, truncated by a
  // full disk, hand-damaged) are skipped, falling back to older snapshots.
  for (auto it = have.rbegin(); it != have.rend(); ++it) {
    std::string why;
    if (auto s = load_file(it->string(), config_fingerprint, &why)) return s;
    if (skipped != nullptr) skipped->push_back(it->string() + ": " + why);
  }
  return std::nullopt;
}

std::vector<Snapshot> load_all(const std::string& dir,
                               std::uint64_t config_fingerprint) {
  std::vector<Snapshot> out;
  for (const auto& path : list_snapshots(dir, config_fingerprint))
    if (auto s = load_file(path.string(), config_fingerprint))
      out.push_back(std::move(*s));
  return out;
}

}  // namespace tdn::ckpt
