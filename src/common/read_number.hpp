// Checked decimal numbers for the configuration DSLs: fault plans
// (fault/fault_plan.hpp), arrival specs and serving weights
// (serve/arrival.hpp). A value too large for its field fails loudly
// instead of wrapping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

namespace tdn {

/// A number read from the front of a DSL token.
struct ParsedNumber {
  std::uint64_t value = 0;
  std::size_t length = 0;  ///< characters read; 0 = no leading digit
};

/// Read the decimal digits at the front of @p text and then, when
/// @p scaled, one optional k / M / G multiplier (x1e3 / x1e6 / x1e9).
/// Whatever follows is left to the caller. Throws RequireError naming
/// @p what when the value exceeds @p max, which by default is the 64-bit
/// limit.
ParsedNumber read_number(std::string_view text, std::string_view what,
                         bool scaled = true,
                         std::uint64_t max =
                             std::numeric_limits<std::uint64_t>::max());

/// The @p max for a field stored as `unsigned`.
inline constexpr std::uint64_t kUnsignedMax =
    std::numeric_limits<unsigned>::max();

}  // namespace tdn
