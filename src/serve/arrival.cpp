#include "serve/arrival.hpp"

#include <cmath>
#include <sstream>

#include "common/prng.hpp"
#include "common/read_number.hpp"
#include "common/require.hpp"
#include "serve/options.hpp"

namespace tdn::serve {

namespace {

constexpr const char* kGrammar =
    "expected 'poisson:gap=N', 'fixed:gap=N', "
    "'mmpp:gap=N,burst=N,dwell=N' or 'diurnal:gap=N,amp=F,period=N' "
    "(N takes k/M/G suffixes; see docs/serving.md)";

/// "40k" -> 40000, "2M" -> 2000000, "1G" -> 1000000000, plain digits
/// otherwise; a value past 64 bits fails loudly.
Cycle parse_cycles(std::string_view text, std::string_view what) {
  TDN_REQUIRE(!text.empty(), "empty value for '" + std::string(what) + "'");
  const ParsedNumber n = read_number(text, what);
  TDN_REQUIRE(n.length > 0 && n.length == text.size(),
              "bad number '" + std::string(text) + "' for '" +
                  std::string(what) + "'");
  return n.value;
}

double parse_fraction(std::string_view text, std::string_view what) {
  TDN_REQUIRE(!text.empty(), "empty value for '" + std::string(what) + "'");
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(std::string(text), &pos);
  } catch (...) {
    TDN_REQUIRE(false, "bad fraction '" + std::string(text) + "' for '" +
                           std::string(what) + "'");
  }
  TDN_REQUIRE(pos == text.size(), "trailing junk in '" + std::string(text) +
                                      "' for '" + std::string(what) + "'");
  return v;
}

/// Exponential inter-arrival draw with the given mean, floored to whole
/// cycles. Uses log1p(-u) with u in [0,1) so the argument never hits zero.
Cycle exp_draw(SplitMix64& prng, Cycle mean) {
  const double u = prng.next_double();
  double g = -static_cast<double>(mean) * std::log1p(-u);
  if (g < 0.0) g = 0.0;
  const double cap = 1e15;  // absurd-draw guard, far past any horizon
  if (g > cap) g = cap;
  return static_cast<Cycle>(g);
}

unsigned draw_tenant(SplitMix64& prng, const std::vector<unsigned>& weights,
                     unsigned total) {
  std::uint64_t r = prng.next_below(total);
  for (unsigned t = 0; t < weights.size(); ++t) {
    if (r < weights[t]) return t;
    r -= weights[t];
  }
  return static_cast<unsigned>(weights.size() - 1);  // unreachable
}

}  // namespace

const char* to_string(ArrivalKind k) {
  switch (k) {
    case ArrivalKind::Poisson: return "poisson";
    case ArrivalKind::Mmpp: return "mmpp";
    case ArrivalKind::Diurnal: return "diurnal";
    case ArrivalKind::Fixed: return "fixed";
  }
  return "?";
}

const char* to_string(AdmissionPolicy p) {
  switch (p) {
    case AdmissionPolicy::Reject: return "reject";
    case AdmissionPolicy::DropOldest: return "drop-oldest";
  }
  return "?";
}

std::string ServeOptions::canonical() const {
  std::ostringstream os;
  os << arrival << "/h" << horizon << "/s" << slots << "/q" << max_pending
     << '/' << (admission == AdmissionPolicy::Reject ? "rej" : "dropold")
     << "/w" << (weights.empty() ? "-" : weights) << "/sc" << request_scale
     << "/ad" << (adaptive ? 1 : 0);
  if (adaptive) os << "/e" << epoch << "/th" << switch_threshold;
  return os.str();
}

ArrivalSpec ArrivalSpec::parse(std::string_view text) {
  TDN_REQUIRE(!text.empty(), std::string("empty arrival spec: ") + kGrammar);
  const std::size_t colon = text.find(':');
  const std::string_view kind_txt = text.substr(0, colon);

  ArrivalSpec spec;
  if (kind_txt == "poisson") spec.kind = ArrivalKind::Poisson;
  else if (kind_txt == "mmpp") spec.kind = ArrivalKind::Mmpp;
  else if (kind_txt == "diurnal") spec.kind = ArrivalKind::Diurnal;
  else if (kind_txt == "fixed") spec.kind = ArrivalKind::Fixed;
  else
    TDN_REQUIRE(false, "unknown arrival kind '" + std::string(kind_txt) +
                           "': " + kGrammar);

  if (colon != std::string_view::npos) {
    std::string_view rest = text.substr(colon + 1);
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      const std::string_view kv = rest.substr(0, comma);
      const std::size_t eq = kv.find('=');
      TDN_REQUIRE(eq != std::string_view::npos && eq > 0,
                  "bad key=value '" + std::string(kv) + "': " + kGrammar);
      const std::string_view key = kv.substr(0, eq);
      const std::string_view val = kv.substr(eq + 1);
      if (key == "gap") spec.gap = parse_cycles(val, key);
      else if (key == "burst") spec.burst = parse_cycles(val, key);
      else if (key == "dwell") spec.dwell = parse_cycles(val, key);
      else if (key == "period") spec.period = parse_cycles(val, key);
      else if (key == "amp") spec.amp = parse_fraction(val, key);
      else
        TDN_REQUIRE(false, "unknown arrival key '" + std::string(key) +
                               "': " + kGrammar);
      if (comma == std::string_view::npos) break;
      rest = rest.substr(comma + 1);
    }
  }

  TDN_REQUIRE(spec.gap > 0, "arrival gap must be positive");
  if (spec.kind == ArrivalKind::Mmpp) {
    TDN_REQUIRE(spec.burst > 0 && spec.dwell > 0,
                "mmpp needs positive burst and dwell");
  }
  if (spec.kind == ArrivalKind::Diurnal) {
    TDN_REQUIRE(spec.period > 0, "diurnal needs a positive period");
    TDN_REQUIRE(spec.amp >= 0.0 && spec.amp < 1.0,
                "diurnal amp must be in [0, 1)");
  }
  return spec;
}

std::vector<Arrival> ArrivalSpec::generate(
    Cycle horizon, const std::vector<unsigned>& weights,
    std::uint64_t seed) const {
  TDN_REQUIRE(!weights.empty(), "at least one tenant");
  unsigned total_weight = 0;
  for (unsigned w : weights) {
    TDN_REQUIRE(w >= 1, "tenant weights must be >= 1");
    total_weight += w;
  }

  // The trace depends only on (spec, horizon, weights, seed): hash every
  // spec field into the stream seed so e.g. poisson:gap=40k and
  // fixed:gap=40k never share draws.
  std::ostringstream id;
  id << to_string(kind) << '/' << gap << '/' << burst << '/' << dwell << '/'
     << period << '/' << amp;
  const std::string s = id.str();
  SplitMix64 prng(fnv1a64(s.data(), s.size(), 0x5e12e5e12ull) ^
                  (seed * 0x9e3779b97f4a7c15ull + 1));

  // Runaway-spec guard: a serving run is tens-to-hundreds of requests, not
  // millions; a gap orders of magnitude below the horizon is a config bug.
  constexpr std::size_t kMaxArrivals = 100'000;

  std::vector<Arrival> out;
  Cycle t = 0;
  switch (kind) {
    case ArrivalKind::Fixed: {
      for (t = gap; t < horizon; t += gap) {
        out.push_back({t, draw_tenant(prng, weights, total_weight)});
        TDN_REQUIRE(out.size() <= kMaxArrivals, "arrival spec generates too many requests");
      }
      break;
    }
    case ArrivalKind::Poisson: {
      while (true) {
        t += exp_draw(prng, gap);
        if (t >= horizon) break;
        out.push_back({t, draw_tenant(prng, weights, total_weight)});
        TDN_REQUIRE(out.size() <= kMaxArrivals, "arrival spec generates too many requests");
      }
      break;
    }
    case ArrivalKind::Mmpp: {
      unsigned state = 0;  // 0 = calm, 1 = burst
      Cycle switch_at = exp_draw(prng, dwell);
      while (true) {
        const Cycle g = exp_draw(prng, state == 0 ? gap : burst);
        // Memorylessness lets us clip an inter-arrival at a state switch
        // and redraw under the new rate — the standard MMPP construction.
        if (t + g >= switch_at) {
          t = switch_at;
          if (t >= horizon) break;
          state ^= 1u;
          switch_at = t + exp_draw(prng, dwell);
          continue;
        }
        t += g;
        if (t >= horizon) break;
        out.push_back({t, draw_tenant(prng, weights, total_weight)});
        TDN_REQUIRE(out.size() <= kMaxArrivals, "arrival spec generates too many requests");
      }
      break;
    }
    case ArrivalKind::Diurnal: {
      // Thinning against the peak rate (1 + amp) / gap: candidates arrive
      // at the peak rate and are accepted with probability rate(t) / peak.
      const double peak_mean = static_cast<double>(gap) / (1.0 + amp);
      const Cycle peak_gap =
          peak_mean < 1.0 ? 1 : static_cast<Cycle>(peak_mean);
      const double two_pi = 6.283185307179586;
      while (true) {
        t += exp_draw(prng, peak_gap);
        if (t >= horizon) break;
        const double phase =
            two_pi * static_cast<double>(t % period) / static_cast<double>(period);
        const double accept =
            (1.0 + amp * std::sin(phase)) / (1.0 + amp);
        const double u = prng.next_double();
        if (u < accept)
          out.push_back({t, draw_tenant(prng, weights, total_weight)});
        TDN_REQUIRE(out.size() <= kMaxArrivals, "arrival spec generates too many requests");
      }
      break;
    }
  }
  return out;
}

std::vector<unsigned> parse_weights(std::string_view text,
                                    unsigned num_tenants) {
  TDN_REQUIRE(num_tenants >= 1, "at least one tenant");
  if (text.empty()) return std::vector<unsigned>(num_tenants, 1);
  std::vector<unsigned> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t colon = text.find(':', start);
    const std::string_view part = text.substr(
        start, colon == std::string_view::npos ? std::string_view::npos
                                               : colon - start);
    const Cycle w = parse_cycles(part, "weights");
    TDN_REQUIRE(w >= 1 && w <= 1'000'000, "tenant weight out of range");
    out.push_back(static_cast<unsigned>(w));
    if (colon == std::string_view::npos) break;
    start = colon + 1;
  }
  TDN_REQUIRE(out.size() == num_tenants,
              "weights '" + std::string(text) + "' name " +
                  std::to_string(out.size()) + " tenants, mix has " +
                  std::to_string(num_tenants));
  return out;
}

}  // namespace tdn::serve
