// Allocation budget of the per-event path: the event queue, NoC, caches,
// coherence, cores and TLBs must not touch the heap allocator per simulated
// event (DESIGN.md decision 1). This executable replaces the global
// operator new with a counting one, so it must stay its own test binary.
// Counting is on only inside run(): construction, workload builds and
// statistics collection allocate freely.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "multi/multi_system.hpp"
#include "serve/serve_system.hpp"
#include "system/tiled_system.hpp"
#include "workloads/workload.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace tdn {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

/// Heap allocations per executed event over @p sys.run().
template <typename System>
double allocations_per_event(System& sys, const std::string& name) {
  const std::uint64_t before = sys.events().executed();
  g_allocations.store(0);
  g_counting.store(true);
  sys.run();
  g_counting.store(false);
  EXPECT_TRUE(sys.completed()) << name;
  const std::uint64_t events = sys.events().executed() - before;
  EXPECT_GT(events, 0u) << name;
  const double per_event =
      static_cast<double>(g_allocations.load()) / static_cast<double>(events);
  std::printf("%-28s %10llu events  %.4f allocations/event\n", name.c_str(),
              static_cast<unsigned long long>(events), per_event);
  return per_event;
}

TEST(AllocBudget, PaperShapeTiledRuns) {
  if (kSanitized) GTEST_SKIP() << "sanitizers allocate on their own";
  // perfbench paper_sweep's machine: LLC banks and L1s cut 8x.
  for (const char* app : {"gauss", "jacobi"}) {
    for (const auto policy :
         {system::PolicyKind::SNuca, system::PolicyKind::RNuca,
          system::PolicyKind::TdNuca}) {
      system::SystemConfig cfg;
      cfg.policy = policy;
      cfg.hierarchy.llc_bank.size_bytes = 32 * kKiB;
      cfg.hierarchy.l1.size_bytes = 4 * kKiB;
      workloads::WorkloadParams params;
      params.scale = 0.0625;
      system::TiledSystem sys(cfg);
      auto wl = workloads::make_workload(app, params);
      wl->build(sys);
      const std::string name =
          std::string(app) + "/" + system::to_string(policy);
      EXPECT_LT(allocations_per_event(sys, name), 0.05) << name;
    }
  }
}

TEST(AllocBudget, TdNucaServingRun) {
  if (kSanitized) GTEST_SKIP() << "sanitizers allocate on their own";
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  serve::ServeOptions opts;
  opts.arrival = "poisson:gap=40k";
  opts.request_scale = 0.02;
  opts.horizon = 400'000;
  serve::ServeSystem sys(cfg, multi::MixSpec::parse("gauss+histo"), opts);
  sys.build({});
  // About 0.03 since RRT registration stopped allocating (0.08 before).
  EXPECT_LT(allocations_per_event(sys, "serve gauss+histo"), 0.05);
}

TEST(AllocBudget, TdNucaFourKPageMix) {
  if (kSanitized) GTEST_SKIP() << "sanitizers allocate on their own";
  system::SystemConfig cfg;
  cfg.policy = system::PolicyKind::TdNuca;
  cfg.vm.enabled = true;
  cfg.vm.thp = vm::ThpPolicy::Never;
  multi::MultiProgramSystem sys(cfg, multi::MixSpec::parse("randtouch+kmeans"));
  workloads::WorkloadParams params;
  params.scale = 0.125;
  sys.build(params);
  // About 0.09 since RRT registration stopped allocating (0.14 before); the
  // rest is mostly page walks (a Job and a continuation per PTE load).
  EXPECT_LT(allocations_per_event(sys, "mix randtouch+kmeans vm4k"), 0.12);
}

}  // namespace
}  // namespace tdn
