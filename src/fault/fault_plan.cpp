#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <sstream>

#include "common/read_number.hpp"
#include "common/require.hpp"

namespace tdn::fault {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::BankFail: return "bank_fail";
    case FaultKind::BankSlow: return "bank_slow";
    case FaultKind::LinkFail: return "link_fail";
    case FaultKind::LinkDegrade: return "link_degrade";
    case FaultKind::RrtFlip: return "rrt_flip";
    case FaultKind::RrtEvict: return "rrt_evict";
    case FaultKind::DramStall: return "dram_stall";
  }
  return "?";
}

namespace {

[[noreturn]] void bad(const std::string& tok, const std::string& why) {
  TDN_REQUIRE(false, "fault plan: " + why + " in '" + tok + "'");
  __builtin_unreachable();
}

std::string strip(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Parse "<digits>[k|M|G]" (decimal multipliers 1e3/1e6/1e9); a value
/// above @p max fails loudly.
std::uint64_t parse_scaled(const std::string& tok, const std::string& s,
                           std::uint64_t max =
                               std::numeric_limits<std::uint64_t>::max()) {
  if (s.empty()) bad(tok, "missing number");
  const ParsedNumber n = read_number(s, "fault plan '" + tok + "'", true, max);
  if (n.length == 0) bad(tok, "expected a number, got '" + s + "'");
  if (n.length != s.size())
    bad(tok, "trailing garbage '" + s.substr(n.length) + "'");
  return n.value;
}

FaultKind parse_kind(const std::string& tok, const std::string& s) {
  if (s == "bank_fail") return FaultKind::BankFail;
  if (s == "bank_slow") return FaultKind::BankSlow;
  if (s == "link_fail") return FaultKind::LinkFail;
  if (s == "link_degrade") return FaultKind::LinkDegrade;
  if (s == "rrt_flip") return FaultKind::RrtFlip;
  if (s == "rrt_evict") return FaultKind::RrtEvict;
  if (s == "dram_stall") return FaultKind::DramStall;
  bad(tok, "unknown fault kind '" + s + "'");
}

bool is_link_kind(FaultKind k) {
  return k == FaultKind::LinkFail || k == FaultKind::LinkDegrade;
}

/// Parse "(x,y)-(x,y)" into the four endpoint coordinates.
void parse_link_target(const std::string& tok, const std::string& s,
                       FaultEvent& ev) {
  unsigned vals[4] = {0, 0, 0, 0};
  std::size_t i = 0, v = 0;
  auto expect = [&](char c) {
    if (i >= s.size() || s[i] != c)
      bad(tok, std::string("expected '") + c + "' in link target '" + s + "'");
    ++i;
  };
  auto number = [&]() {
    const ParsedNumber n =
        read_number(std::string_view(s).substr(i), "fault plan '" + tok + "'",
                    /*scaled=*/false, kUnsignedMax);
    if (n.length == 0)
      bad(tok, "expected a coordinate in link target '" + s + "'");
    i += n.length;
    vals[v++] = static_cast<unsigned>(n.value);
  };
  expect('(');
  number();
  expect(',');
  number();
  expect(')');
  expect('-');
  expect('(');
  number();
  expect(',');
  number();
  expect(')');
  if (i != s.size()) bad(tok, "trailing garbage in link target '" + s + "'");
  ev.ax = vals[0];
  ev.ay = vals[1];
  ev.bx = vals[2];
  ev.by = vals[3];
  const bool adjacent = (ev.ax == ev.bx && (ev.ay + 1 == ev.by || ev.by + 1 == ev.ay)) ||
                        (ev.ay == ev.by && (ev.ax + 1 == ev.bx || ev.bx + 1 == ev.ax));
  if (!adjacent) bad(tok, "link endpoints must be mesh neighbours");
}

void parse_unit_target(const std::string& tok, const std::string& s,
                       FaultEvent& ev) {
  std::string digits = s;
  if (s.rfind("bank", 0) == 0) digits = s.substr(4);
  else if (s.rfind("core", 0) == 0) digits = s.substr(4);
  else if (s.rfind("mc", 0) == 0) digits = s.substr(2);
  if (digits.empty()) bad(tok, "missing unit index in target '" + s + "'");
  const ParsedNumber n = read_number(digits, "fault plan '" + tok + "'",
                                     /*scaled=*/false, kUnsignedMax);
  if (n.length != digits.size())
    bad(tok, "bad unit index in target '" + s + "'");
  ev.unit = static_cast<unsigned>(n.value);
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::stringstream ss(spec);
  std::string raw;
  while (std::getline(ss, raw, ',')) {
    // Link targets contain a comma — "(1,2)-(2,2)" — so a token with an
    // unbalanced '(' swallows the next comma-separated chunk.
    while (std::count(raw.begin(), raw.end(), '(') >
           std::count(raw.begin(), raw.end(), ')')) {
      std::string more;
      if (!std::getline(ss, more, ',')) break;
      raw += ',' + more;
    }
    const std::string tok = strip(raw);
    if (tok.empty()) continue;

    const std::size_t at = tok.find('@');
    if (at == std::string::npos) bad(tok, "missing '@target'");
    FaultEvent ev;
    ev.kind = parse_kind(tok, strip(tok.substr(0, at)));

    std::size_t colon = tok.find(':', at + 1);
    const std::string target = strip(tok.substr(at + 1, colon == std::string::npos
                                                            ? std::string::npos
                                                            : colon - at - 1));
    if (is_link_kind(ev.kind)) parse_link_target(tok, target, ev);
    else parse_unit_target(tok, target, ev);

    while (colon != std::string::npos) {
      const std::size_t next = tok.find(':', colon + 1);
      const std::string p = strip(tok.substr(colon + 1, next == std::string::npos
                                                            ? std::string::npos
                                                            : next - colon - 1));
      if (p.rfind("cycle=", 0) == 0) ev.at = parse_scaled(tok, p.substr(6));
      else if (p.rfind("len=", 0) == 0) ev.length = parse_scaled(tok, p.substr(4));
      else if (!p.empty() && p[0] == 'x')
        ev.factor =
            static_cast<unsigned>(parse_scaled(tok, p.substr(1), kUnsignedMax));
      else bad(tok, "unknown parameter '" + p + "'");
      colon = next;
    }

    if (ev.kind == FaultKind::BankSlow || ev.kind == FaultKind::LinkDegrade)
      TDN_REQUIRE(ev.factor >= 1, "fault plan: factor must be >= 1");
    if (ev.kind == FaultKind::DramStall)
      TDN_REQUIRE(ev.length > 0,
                  "fault plan: dram_stall needs len=<cycles> in '" + tok + "'");
    plan.events_.push_back(ev);
  }
  return plan;
}

std::string to_string(const FaultEvent& ev) {
  std::ostringstream os;
  os << to_string(ev.kind) << '@';
  if (is_link_kind(ev.kind)) {
    os << '(' << ev.ax << ',' << ev.ay << ")-(" << ev.bx << ',' << ev.by << ')';
  } else {
    os << ev.unit;
  }
  if (ev.at != 0) os << ":cycle=" << ev.at;
  if (ev.factor != 1) os << ":x" << ev.factor;
  if (ev.length != 0) os << ":len=" << ev.length;
  return os.str();
}

std::string FaultPlan::canonical() const {
  std::string s;
  for (const FaultEvent& ev : events_) {
    if (!s.empty()) s += ',';
    s += to_string(ev);
  }
  return s;
}

}  // namespace tdn::fault
