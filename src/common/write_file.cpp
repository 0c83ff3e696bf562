#include "common/write_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <sstream>

namespace tdn {

bool write_file(const std::string& path, const std::string& content) {
  namespace fs = std::filesystem;
  const fs::path p(path);
  std::error_code ec;
  if (!p.parent_path().empty()) {
    fs::create_directories(p.parent_path(), ec);
    if (ec) return false;
  }
  // Unique temp name per (process, call): concurrent writers of the same
  // path each publish a complete file and the last rename wins.
  static std::atomic<unsigned> seq{0};
  std::ostringstream tmp_name;
  tmp_name << p.filename().string() << ".tmp." << ::getpid() << "."
           << seq.fetch_add(1, std::memory_order_relaxed);
  const fs::path tmp = p.parent_path() / tmp_name.str();
  // POSIX fd path rather than ofstream: the data must be fsync'd *before*
  // the rename publishes the name. Rename-then-crash on an unsynced file
  // can otherwise surface as a complete-looking but empty (or partial) file
  // after a host crash — exactly the torn state atomic publication is meant
  // to rule out (docs/harness.md §durability).
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      ::close(fd);
      fs::remove(tmp, ec);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    fs::remove(tmp, ec);
    return false;
  }
  if (::close(fd) != 0) {
    fs::remove(tmp, ec);
    return false;
  }
  fs::rename(tmp, p, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  // Make the rename itself durable: fsync the containing directory. Failure
  // here (e.g. an fsync-less filesystem) is not fatal — the data blocks are
  // already synced, only the name's durability is best-effort.
  const std::string dir =
      p.parent_path().empty() ? "." : p.parent_path().string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

}  // namespace tdn
