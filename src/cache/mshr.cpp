#include "cache/mshr.hpp"

namespace tdn::cache {

MshrFile::Outcome MshrFile::register_miss(Addr line_addr, Callback&& on_fill) {
  TDN_ASSERT(line_addr != kFree);
  std::size_t i = find(line_addr);
  if (i != kNone) {
    waiters_[i].push_back(std::move(on_fill));
    merges_.inc();
    return Outcome::Merged;
  }
  // Capacity is checked before consuming on_fill: on Full the callback must
  // remain with the caller (see the header contract) so it can be retried.
  if (outstanding_ >= capacity_) {
    full_.inc();
    return Outcome::Full;
  }
  i = find(kFree);
  waiters_[i].push_back(std::move(on_fill));
  lines_[i] = line_addr;
  ++outstanding_;
  return Outcome::NewEntry;
}

}  // namespace tdn::cache
