#include "common/read_number.hpp"

#include <string>

#include "common/require.hpp"

namespace tdn {

ParsedNumber read_number(std::string_view text, std::string_view what,
                         bool scaled, std::uint64_t max) {
  std::size_t digits = 0;
  while (digits < text.size() && text[digits] >= '0' && text[digits] <= '9')
    ++digits;
  ParsedNumber n{0, digits};
  std::uint64_t mul = 1;
  if (scaled && digits > 0 && digits < text.size()) {
    switch (text[digits]) {
      case 'k': mul = 1'000; break;
      case 'M': mul = 1'000'000; break;
      case 'G': mul = 1'000'000'000; break;
      default: break;
    }
    if (mul > 1) ++n.length;
  }
  bool fits = true;
  for (std::size_t i = 0; i < digits && fits; ++i) {
    const auto digit = static_cast<std::uint64_t>(text[i] - '0');
    fits = n.value <= (max - digit) / 10;
    n.value = n.value * 10 + digit;
  }
  TDN_REQUIRE(fits && n.value <= max / mul,
              std::string(what) + ": number '" +
                  std::string(text.substr(0, n.length)) + "' exceeds " +
                  std::to_string(max));
  n.value *= mul;
  return n;
}

}  // namespace tdn
