// Minimal JSON formatting helpers shared by the harness's latency report and
// the observability sinks. Emission only — the simulator never parses JSON.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace tdn {

/// Escape a string for inclusion inside a JSON string literal (quotes not
/// included).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Format a double as a JSON number that round-trips (%.17g); non-finite
/// values (not representable in JSON) become null.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  // Integral values print without an exponent/decimal tail so the common
  // case (counters) stays readable.
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

}  // namespace tdn
