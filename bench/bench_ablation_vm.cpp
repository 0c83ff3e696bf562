// Ablation: tdn::vm page-size policy x physical fragmentation x NUCA policy
// on the TLB-hostile randtouch workload — the RRT-translation study the
// paper's infrastructure could not produce (docs/memory.md).
//
// Huge pages collapse the iterative tdnuca_register translation (one TLB
// probe per page, paper Sec. V-E) by 512x and shrink the walk footprint;
// under R-NUCA they also coarsen page classification to 2M grain, while
// TD-NUCA's region-grain placement is page-size independent.
//
// --smoke runs a reduced-scale sweep (CI).
#include <cstring>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  harness::print_figure_header(
      "Ablation",
      "tdn::vm page policy x fragmentation x NUCA policy (workload: "
      "randtouch)");

  struct Thp {
    const char* name;
    vm::ThpPolicy policy;
  };
  const Thp thps[] = {{"4K (never)", vm::ThpPolicy::Never},
                      {"2M (always)", vm::ThpPolicy::Always},
                      {"madvise", vm::ThpPolicy::Madvise}};
  // 1.0 punctures every 2M block in the pool — no huge allocation can
  // succeed, so the fallback path (and the knob's worst case) is on the
  // table; 0.5 leaves enough unpunctured blocks that huge pages survive.
  const double frags[] = {0.0, 0.5, 1.0};
  const PolicyKind policies[] = {PolicyKind::TdNuca, PolicyKind::RNuca};

  std::vector<harness::RunConfig> cfgs;
  for (const PolicyKind pk : policies) {
    for (const double frag : frags) {
      for (const Thp& thp : thps) {
        harness::RunConfig cfg;
        cfg.workload = "randtouch";
        cfg.policy = pk;
        cfg.params.scale = smoke ? 0.125 : 0.5;
        cfg.sys.vm.enabled = true;
        cfg.sys.vm.thp = thp.policy;
        cfg.sys.vm.fragmentation = frag;
        cfgs.push_back(std::move(cfg));
      }
    }
  }
  const auto results = run_all(cfgs);

  stats::Table table({"policy", "pages", "frag", "cycles", "reg pages",
                      "reg cycles", "tlb misses", "walk loads", "2M pages",
                      "huge fallbacks", "rnuca pages"});
  std::size_t i = 0;
  for (const PolicyKind pk : policies) {
    for (const double frag : frags) {
      for (const Thp& thp : thps) {
        const auto& r = results[i++];
        const bool td = pk == PolicyKind::TdNuca;
        // R-NUCA classifies at page grain: with 2M pages the census counts
        // 2M-grain entries, so "rnuca pages" shrinking is the coarsening.
        const double rnuca_pages = td ? 0.0
                                      : r.get("rnuca.private_pages") +
                                            r.get("rnuca.shared_ro_pages") +
                                            r.get("rnuca.shared_pages");
        table.add_row(
            {system::to_string(pk), thp.name, stats::Table::num(frag, 2),
             stats::Table::num(r.get("sim.cycles"), 0),
             td ? stats::Table::num(r.get("tdnuca.translate_pages"), 0) : "-",
             td ? stats::Table::num(r.get("tdnuca.translate_cycles"), 0) : "-",
             stats::Table::num(r.get("tlb.misses"), 0),
             stats::Table::num(r.get("vm.walk_loads"), 0),
             stats::Table::num(r.get("vm.pages_2m"), 0),
             stats::Table::num(r.get("vm.huge_fallbacks"), 0),
             td ? "-" : stats::Table::num(rnuca_pages, 0)});
      }
    }
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "expected shape: 2M pages collapse the per-dependency register "
      "translation (reg pages / reg cycles) and cut TLB misses + walker "
      "loads; a fully punctured pool (frag=1.0) defeats every huge "
      "allocation — fallbacks fire and the 4K costs return; R-NUCA's census "
      "coarsens to 2M grain while TD-NUCA placement is unchanged by page "
      "size. madvise hints are issued by the TD-NUCA runtime hooks, so "
      "under R-NUCA madvise behaves as never.\n");
  bench::obs_section();
  return 0;
}
