#include "obs/recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "common/jsonfmt.hpp"
#include "common/require.hpp"
#include "sim/event_queue.hpp"

namespace tdn::obs {

Recorder::Recorder(RecorderConfig cfg) : cfg_(cfg) {
  TDN_REQUIRE(cfg_.epoch_cycles > 0, "epoch length must be positive");
  if (cfg_.attribution) attr_ = std::make_unique<LatencyAttribution>();
}

Cycle Recorder::now() const noexcept { return eq_ != nullptr ? eq_->now() : 0; }

void Recorder::set_track_name(std::uint32_t tid, std::string name) {
  if (!cfg_.trace) return;
  track_names_[tid] = std::move(name);
}

void Recorder::span(std::uint32_t tid, const char* cat, std::string name,
                    Cycle start, Cycle dur, std::string args) {
  if (!cfg_.trace) return;
  events_.push_back(TraceEvent{start, dur, tid, 'X', std::move(name), cat,
                               std::move(args)});
}

void Recorder::instant(std::uint32_t tid, const char* cat, std::string name,
                       std::string args) {
  if (!cfg_.trace) return;
  events_.push_back(
      TraceEvent{now(), 0, tid, 'i', std::move(name), cat, std::move(args)});
}

void Recorder::add_series(std::string name, SeriesProbe probe) {
  if (!cfg_.epochs) return;
  series_.push_back(Series{std::move(name), std::move(probe)});
}

void Recorder::add_heatmap(std::string name, unsigned w, unsigned h,
                           HeatmapFill fill) {
  if (!cfg_.heatmaps) return;
  heatmaps_.push_back(Heatmap{std::move(name), w, h, std::move(fill)});
}

bool Recorder::tick_live(const sim::EventQueue& eq) const noexcept {
  // The last scheduled tick is still queued iff it has not fired
  // (tick_pending_), its cycle is still in the future, and the queue has
  // not dropped any observer event since it was scheduled (run_until drops
  // past-limit observers; a changed drop count means our tick may be gone,
  // and re-arming is then the safe side — the generation counter makes a
  // survivor inert).
  return tick_pending_ && eq.now() < next_tick_ &&
         eq.observer_dropped() == drops_at_schedule_;
}

void Recorder::schedule_tick(sim::EventQueue& eq) {
  tick_pending_ = true;
  next_tick_ = eq.now() + cfg_.epoch_cycles;
  drops_at_schedule_ = eq.observer_dropped();
  const std::uint64_t gen = ++tick_gen_;
  eq.schedule_observer_at(next_tick_, [this, &eq, gen] { sample(eq, gen); });
}

void Recorder::arm(sim::EventQueue& eq) {
  if (!cfg_.epochs || series_.empty()) return;
  // Re-arming while the previous tick is still queued (a resumed run) must
  // not start a second tick chain — that would double every epoch row.
  if (tick_live(eq)) return;
  schedule_tick(eq);
}

void Recorder::sample(sim::EventQueue& eq, std::uint64_t gen) {
  if (gen != tick_gen_) return;  // superseded by a later arm(): inert
  tick_pending_ = false;
  // A re-armed tick can land on a cycle that already has a row (the drop /
  // re-arm path); emit each sample cycle once.
  if (rows_.empty() || rows_.back().first != eq.now()) {
    std::vector<double> row;
    row.reserve(series_.size());
    for (Series& s : series_) row.push_back(s.probe());
    rows_.emplace_back(eq.now(), std::move(row));
  }
  // Keep ticking only while the simulation itself is still live; the tick
  // that finds the queue drained is the final (tail) sample.
  if (eq.real_pending() > 0 && cfg_.epoch_cycles > 0) schedule_tick(eq);
}

// --------------------------------------------------------------------------
// Trace sink output
// --------------------------------------------------------------------------

std::string Recorder::trace_json() const {
  // Sort by start timestamp (stable: emission order breaks ties) — spans are
  // recorded at completion time, so raw emission order is not monotone.
  std::vector<std::size_t> order(events_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return events_[a].ts < events_[b].ts;
                   });

  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    os << (first ? "" : ",\n");
    first = false;
  };
  for (const auto& [tid, name] : track_names_) {
    sep();
    os << R"({"ph":"M","pid":0,"tid":)" << tid
       << R"(,"name":"thread_name","args":{"name":")" << json_escape(name)
       << "\"}}";
  }
  for (const std::size_t i : order) {
    const TraceEvent& e = events_[i];
    sep();
    os << "{\"ph\":\"" << e.ph << "\",\"pid\":0,\"tid\":" << e.tid
       << ",\"ts\":" << e.ts;
    if (e.ph == 'X') os << ",\"dur\":" << e.dur;
    if (e.ph == 'i') os << ",\"s\":\"t\"";
    os << ",\"cat\":\"" << json_escape(e.cat) << "\",\"name\":\""
       << json_escape(e.name) << "\"";
    if (!e.args_json.empty()) os << ",\"args\":{" << e.args_json << "}";
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
  return os.str();
}

// --------------------------------------------------------------------------
// Epoch sampler output
// --------------------------------------------------------------------------

std::string Recorder::epochs_csv() const {
  std::ostringstream os;
  os << "cycle";
  for (const Series& s : series_) os << ',' << s.name;
  os << '\n';
  for (const auto& [cycle, row] : rows_) {
    os << cycle;
    for (const double v : row) os << ',' << json_number(v);
    os << '\n';
  }
  return os.str();
}

std::string Recorder::epochs_json() const {
  std::ostringstream os;
  os << "{\"epoch_cycles\":" << cfg_.epoch_cycles << ",\"series\":[";
  for (std::size_t i = 0; i < series_.size(); ++i)
    os << (i ? "," : "") << '"' << json_escape(series_[i].name) << '"';
  os << "],\"rows\":[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << (r ? ",\n" : "") << "[" << rows_[r].first;
    for (const double v : rows_[r].second) os << ',' << json_number(v);
    os << "]";
  }
  os << "\n]}\n";
  return os.str();
}

// --------------------------------------------------------------------------
// Heatmap output
// --------------------------------------------------------------------------

std::string Recorder::heatmaps_text() {
  std::ostringstream os;
  for (Heatmap& hm : heatmaps_) {
    const std::vector<double> v = hm.fill();
    TDN_REQUIRE(v.size() == static_cast<std::size_t>(hm.w) * hm.h,
                "heatmap provider returned wrong cell count: " + hm.name);
    os << "# " << hm.name << " (" << hm.w << "x" << hm.h << ")\n";
    for (unsigned y = 0; y < hm.h; ++y) {
      for (unsigned x = 0; x < hm.w; ++x) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%14.6g", v[y * hm.w + x]);
        os << buf;
      }
      os << '\n';
    }
    os << '\n';
  }
  return os.str();
}

std::string Recorder::heatmaps_json() {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < heatmaps_.size(); ++i) {
    Heatmap& hm = heatmaps_[i];
    const std::vector<double> v = hm.fill();
    TDN_REQUIRE(v.size() == static_cast<std::size_t>(hm.w) * hm.h,
                "heatmap provider returned wrong cell count: " + hm.name);
    os << (i ? ",\n" : "\n") << "  \"" << json_escape(hm.name)
       << "\": {\"w\":" << hm.w << ",\"h\":" << hm.h << ",\"rows\":[";
    for (unsigned y = 0; y < hm.h; ++y) {
      os << (y ? "," : "") << "[";
      for (unsigned x = 0; x < hm.w; ++x)
        os << (x ? "," : "") << json_number(v[y * hm.w + x]);
      os << "]";
    }
    os << "]}";
  }
  os << (heatmaps_.empty() ? "}" : "\n}");
  return os.str();
}

}  // namespace tdn::obs
