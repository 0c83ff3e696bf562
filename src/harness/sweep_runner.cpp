#include "harness/sweep_runner.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/require.hpp"

namespace tdn::harness {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One unit of work: a unique fingerprint and every input position it fills.
struct WorkItem {
  RunConfig cfg;
  std::vector<std::size_t> positions;
  RunResult result;
  double wall_ms = 0.0;
  std::exception_ptr error;
};

/// Serialized progress reporting. On a TTY the line redraws in place; on a
/// pipe (CI logs) only the final summary is printed to avoid \r spam.
class Progress {
 public:
  Progress(bool enabled, std::size_t total)
      : enabled_(enabled), tty_(enabled && ::isatty(2) != 0), total_(total),
        t0_(Clock::now()) {}

  void completed(std::size_t done, std::size_t cache_hits) {
    if (!tty_) return;
    std::lock_guard<std::mutex> lock(mu_);
    const double elapsed = ms_since(t0_);
    // Guard the extrapolation: done can only be 0 if a caller misuses us,
    // and done > total_ would underflow the remaining-run count. Either way
    // (or with a non-finite elapsed) format_eta renders "--" rather than
    // arithmetic garbage.
    double eta = 0.0;
    if (done == 0 || done > total_) {
      eta = std::numeric_limits<double>::quiet_NaN();
    } else {
      eta = elapsed / static_cast<double>(done) *
            static_cast<double>(total_ - done);
    }
    std::fprintf(stderr,
                 "\r[sweep] %zu/%zu done, %zu cache hits, ETA %s   ", done,
                 total_, cache_hits, format_eta(eta).c_str());
    if (done == total_) std::fprintf(stderr, "\n");
  }

  void summary(const SweepStats& st) {
    if (!enabled_) return;
    std::fprintf(stderr,
                 "[sweep] %zu runs (%zu simulated, %zu cache hits, %zu "
                 "deduped) in %.1fs, jobs=%u\n",
                 st.runs, st.simulated, st.cache_hits, st.deduped,
                 st.wall_ms / 1000.0, st.jobs);
  }

 private:
  bool enabled_;
  bool tty_;
  std::size_t total_;
  Clock::time_point t0_;
  std::mutex mu_;
};

}  // namespace

unsigned resolve_jobs(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

std::string format_eta(double ms) {
  // NaN, infinities and negative durations are placeholders, not estimates;
  // the upper clamp keeps the cast to integer seconds in-range (casting a
  // double beyond LONG_MAX is undefined behaviour).
  if (!std::isfinite(ms) || ms < 0.0) return "--";
  constexpr double kMaxMs = 99.0 * 3600.0 * 1000.0;
  if (ms > kMaxMs) return ">99h";
  const long s = static_cast<long>(ms / 1000.0 + 0.5);
  char buf[32];
  if (s >= 3600) std::snprintf(buf, sizeof buf, "%ldh%02ldm", s / 3600, s % 3600 / 60);
  else if (s >= 60) std::snprintf(buf, sizeof buf, "%ldm%02lds", s / 60, s % 60);
  else std::snprintf(buf, sizeof buf, "%lds", s);
  return buf;
}

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts) {}

std::vector<RunResult> SweepRunner::run(const std::vector<RunConfig>& configs) {
  const auto t0 = Clock::now();
  stats_ = SweepStats{};
  registry_ = stats::Registry{};
  stats_.runs = configs.size();

  // Coalesce equal fingerprints: each unique key is simulated exactly once
  // per process, so pool workers never race on the same cache entry. Items
  // keep first-appearance order, which keeps jobs=1 execution order equal
  // to the legacy serial loop.
  std::vector<WorkItem> items;
  {
    std::map<std::uint64_t, std::size_t> by_fp;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const std::uint64_t fp = configs[i].fingerprint();
      const auto it = by_fp.find(fp);
      if (it == by_fp.end()) {
        by_fp.emplace(fp, items.size());
        items.push_back(WorkItem{configs[i], {i}, {}, 0.0, nullptr});
      } else {
        items[it->second].positions.push_back(i);
        ++stats_.deduped;
      }
    }
  }

  const unsigned jobs = std::min<unsigned>(
      resolve_jobs(opts_.jobs),
      static_cast<unsigned>(std::max<std::size_t>(items.size(), 1)));
  stats_.jobs = jobs;

  Progress progress(opts_.progress, configs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> cache_hits{0};

  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= items.size()) return;
      WorkItem& item = items[i];
      const auto run_t0 = Clock::now();
      try {
        item.result = run_experiment(item.cfg, opts_.use_cache);
      } catch (...) {
        item.error = std::current_exception();
      }
      item.wall_ms = ms_since(run_t0);
      if (item.error == nullptr && item.result.from_cache)
        cache_hits.fetch_add(1, std::memory_order_relaxed);
      progress.completed(done.fetch_add(1, std::memory_order_relaxed) + 1,
                         cache_hits.load(std::memory_order_relaxed));
    }
  };

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Collect in input order; duplicate-fingerprint positions share a copy of
  // the one simulated result.
  std::vector<RunResult> out(configs.size());
  const WorkItem* first_error_item = nullptr;
  std::size_t first_error_pos = configs.size();
  for (const WorkItem& item : items) {
    for (const std::size_t pos : item.positions) {
      if (item.error != nullptr) {
        if (pos < first_error_pos) {
          first_error_pos = pos;
          first_error_item = &item;
        }
        continue;
      }
      out[pos] = item.result;
      out[pos].wall_ms = item.wall_ms;
      registry_.set("sweep.run" + std::to_string(pos) + ".wall_ms",
                    item.wall_ms);
      registry_.set("sweep.run" + std::to_string(pos) + ".cache_hit",
                    item.result.from_cache ? 1.0 : 0.0);
    }
  }

  stats_.cache_hits = cache_hits.load();
  // An errored item neither simulated to completion nor hit the cache.
  std::size_t errored = 0;
  for (const WorkItem& item : items)
    if (item.error != nullptr) ++errored;
  stats_.simulated = items.size() - stats_.cache_hits - errored;
  stats_.wall_ms = ms_since(t0);
  registry_.set("sweep.total_wall_ms", stats_.wall_ms);
  registry_.set("sweep.runs", static_cast<double>(stats_.runs));
  registry_.set("sweep.simulated", static_cast<double>(stats_.simulated));
  registry_.set("sweep.cache_hits", static_cast<double>(stats_.cache_hits));
  registry_.set("sweep.deduped", static_cast<double>(stats_.deduped));
  registry_.set("sweep.jobs", static_cast<double>(stats_.jobs));

  progress.summary(stats_);

  if (first_error_item != nullptr) {
    // With jobs>1 the original throw site says nothing about *which* config
    // died; attach the run's identity and cache fingerprint.
    std::ostringstream ctx;
    ctx << "sweep run " << first_error_pos << " failed ["
        << first_error_item->cfg.describe() << ", fingerprint=0x" << std::hex
        << first_error_item->cfg.fingerprint() << "]";
    try {
      std::rethrow_exception(first_error_item->error);
    } catch (const std::exception& e) {
      throw RequireError(ctx.str() + ": " + e.what());
    } catch (...) {
      throw RequireError(ctx.str() + ": unknown exception");
    }
  }
  return out;
}

}  // namespace tdn::harness
