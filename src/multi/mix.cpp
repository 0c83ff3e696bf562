#include "multi/mix.hpp"

#include "common/require.hpp"
#include "workloads/workload.hpp"

namespace tdn::multi {

std::vector<CoreMask> row_partitions(unsigned mesh_w, unsigned mesh_h,
                                     unsigned n) {
  TDN_REQUIRE(n >= 1, "at least one partition");
  TDN_REQUIRE(mesh_h % n == 0,
              "mesh height must divide evenly into per-partition rows");
  const unsigned rows_each = mesh_h / n;
  std::vector<CoreMask> part(n);
  for (unsigned k = 0; k < n; ++k)
    for (unsigned r = k * rows_each; r < (k + 1) * rows_each; ++r)
      for (unsigned x = 0; x < mesh_w; ++x) part[k].set(r * mesh_w + x);
  return part;
}

const char* to_string(PartitionMode m) {
  switch (m) {
    case PartitionMode::Partitioned: return "partitioned";
    case PartitionMode::Shared: return "shared";
  }
  return "?";
}

std::string MultiOptions::canonical() const {
  return mode == PartitionMode::Partitioned ? "part" : "shared";
}

MixSpec MixSpec::parse(std::string_view text) {
  MixSpec mix;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t plus = text.find('+', start);
    const std::string_view part =
        text.substr(start, plus == std::string_view::npos ? std::string_view::npos
                                                          : plus - start);
    TDN_REQUIRE(!part.empty(), "empty component in mix: '" +
                                   std::string(text) + "'");
    TDN_REQUIRE(workloads::is_valid_workload(part),
                "unknown workload '" + std::string(part) + "' in mix '" +
                    std::string(text) +
                    "' (valid: " + workloads::valid_workload_names() + ")");
    mix.apps.emplace_back(part);
    if (plus == std::string_view::npos) break;
    start = plus + 1;
  }
  TDN_REQUIRE(!mix.apps.empty(), "empty mix");
  return mix;
}

std::string MixSpec::joined() const {
  std::string s;
  for (const std::string& a : apps) {
    if (!s.empty()) s += '+';
    s += a;
  }
  return s;
}

}  // namespace tdn::multi
