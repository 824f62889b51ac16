// Fig. 5: WaterWise vs. Carbon-/Water-Greedy-Opt across delay tolerances
// 25%..100% on the Borg-rate trace (the paper's headline result: ~21%+
// carbon and ~14%+ water savings vs. baseline).
#include "common.hpp"

int main() {
  using namespace ww;
  bench::banner("Figure 5: WaterWise vs. greedy oracles (Google Borg trace)",
                "Sec. 6, Fig. 5");

  const auto jobs =
      trace::generate_trace(trace::borg_config(7, bench::campaign_days()));
  const std::vector<double> tolerances = {0.25, 0.50, 0.75, 1.00};

  struct Row {
    dc::CampaignResult base, carbon, water, ww;
  };
  std::vector<Row> rows(tolerances.size());
  util::global_parallel_for(bench::bench_jobs(), tolerances.size() * 4, [&](std::size_t k) {
    const std::size_t i = k / 4;
    bench::CampaignSpec spec;
    spec.tol = tolerances[i];
    switch (k % 4) {
      case 0: rows[i].base = bench::run_policy(jobs, bench::Policy::Baseline, spec); break;
      case 1: rows[i].carbon = bench::run_policy(jobs, bench::Policy::CarbonGreedyOpt, spec); break;
      case 2: rows[i].water = bench::run_policy(jobs, bench::Policy::WaterGreedyOpt, spec); break;
      case 3: rows[i].ww = bench::run_policy(jobs, bench::Policy::WaterWise, spec); break;
    }
  });

  util::Table table({"Delay tolerance", "Scheme", "Carbon saving %",
                     "Water saving %"});
  for (std::size_t i = 0; i < tolerances.size(); ++i) {
    const std::string tol = util::Table::fixed(tolerances[i] * 100.0, 0) + "%";
    const auto& b = rows[i].base;
    auto add = [&](const char* label, const dc::CampaignResult& r) {
      table.add_row({tol, label,
                     util::Table::fixed(r.carbon_saving_pct_vs(b), 2),
                     util::Table::fixed(r.water_saving_pct_vs(b), 2)});
    };
    add("Carbon-Greedy-Opt", rows[i].carbon);
    add("Water-Greedy-Opt", rows[i].water);
    add("WaterWise", rows[i].ww);
  }
  table.print(std::cout);

  // Paper's summary deltas at the headline operating points.
  const auto& r50 = rows[1];
  std::cout << "\nAt 50% tolerance: WaterWise carbon gap to Carbon-Greedy-Opt: "
            << util::Table::fixed(
                   r50.carbon.carbon_saving_pct_vs(r50.base) -
                       r50.ww.carbon_saving_pct_vs(r50.base), 2)
            << " pp; water gap to Water-Greedy-Opt: "
            << util::Table::fixed(
                   r50.water.water_saving_pct_vs(r50.base) -
                       r50.ww.water_saving_pct_vs(r50.base), 2)
            << " pp\n"
            << "Shape check vs. paper: WaterWise saves on BOTH metrics at every\n"
               "tolerance, sits between the two single-metric oracles, and savings\n"
               "grow with tolerance (paper: >=21.91% carbon, >=14.78% water).\n";
  return 0;
}
