// Regenerates paper Fig. 3: categorization of unique cache blocks under
// R-NUCA's OS page classification (left bar) vs TD-NUCA's dependency types
// (right bar), per benchmark.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  init(argc, argv);
  const auto results = suite({PolicyKind::RNuca, PolicyKind::TdNuca});

  harness::print_figure_header(
      "Fig. 3", "block classification: R-NUCA pages vs TD-NUCA dependencies "
                "(fractions of unique blocks)");
  stats::Table table({"bench", "R:private", "R:sharedRO", "R:shared",
                      "TD:in", "TD:out", "TD:both", "TD:notreused",
                      "TD:dep-cover"});
  double shared_sum = 0, dep_sum = 0, nr_sum = 0;
  const auto& names = workloads::paper_workload_names();
  for (const auto& wl : names) {
    const auto& r = harness::find_result(results, wl, PolicyKind::RNuca);
    const auto& t = harness::find_result(results, wl, PolicyKind::TdNuca);
    const double rtot = r.get("fig3.rnuca.total_blocks");
    const double rp = r.get("fig3.rnuca.private_blocks") / rtot;
    const double rro = r.get("fig3.rnuca.shared_ro_blocks") / rtot;
    const double rsh = r.get("fig3.rnuca.shared_blocks") / rtot;
    const double total = t.get("workload.total_blocks");
    const double dep = t.get("fig3.td.dep_blocks");
    const double in = t.get("fig3.td.in_blocks") / total;
    const double out = t.get("fig3.td.out_blocks") / total;
    const double both = t.get("fig3.td.both_blocks") / total;
    const double nr = t.get("fig3.td.notreused_blocks") / total;
    shared_sum += rsh;
    dep_sum += dep / total;
    nr_sum += nr;
    table.add_row({wl, stats::Table::num(rp, 2), stats::Table::num(rro, 2),
                   stats::Table::num(rsh, 2), stats::Table::num(in, 2),
                   stats::Table::num(out, 2), stats::Table::num(both, 2),
                   stats::Table::num(nr, 2),
                   stats::Table::num(dep / total, 2)});
  }
  std::printf("%s", table.to_string().c_str());
  const double n = static_cast<double>(names.size());
  std::printf(
      "measured means: R-NUCA shared %.2f (paper 0.64)   TD dependency "
      "coverage %.2f (paper 0.96)   TD not-reused %.2f (paper 0.72)\n",
      shared_sum / n, dep_sum / n, nr_sum / n);
  std::printf("note: 'notreused' counts blocks whose dependency actually "
              "bypassed the LLC at some point; overlapping dependencies are "
              "deduplicated smallest-first — see DESIGN.md.\n");
  bench::obs_section();
  return 0;
}
