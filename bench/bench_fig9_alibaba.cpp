// Fig. 9: WaterWise on the Alibaba-style VM trace (8.5x invocation rate,
// double-peaked day) across delay tolerances.
#include "common.hpp"

int main() {
  using namespace ww;
  bench::banner("Figure 9: Alibaba trace", "Sec. 6, Fig. 9");

  // The Alibaba rate is 8.5x Borg; scale days down so the default bench run
  // stays quick while keeping ~2x the Borg job count.
  const double days = std::max(0.05, 0.25 * bench::campaign_days());
  const auto jobs = trace::generate_trace(trace::alibaba_config(7, days));
  std::cout << "Jobs in campaign: " << jobs.size() << " over "
            << util::Table::fixed(days, 2) << " day(s)\n";

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

  const auto& r25 = rows[0];
  std::cout << "\nAt 25% tolerance: WaterWise within "
            << util::Table::fixed(
                   r25.carbon.carbon_saving_pct_vs(r25.base) -
                       r25.ww.carbon_saving_pct_vs(r25.base), 2)
            << " pp of Carbon-Greedy-Opt (carbon) and "
            << util::Table::fixed(
                   r25.water.water_saving_pct_vs(r25.base) -
                       r25.ww.water_saving_pct_vs(r25.base), 2)
            << " pp of Water-Greedy-Opt (water)\n"
            << "Shape check vs. paper: same trends as the Borg trace (paper: within\n"
               "3.43%/2.85% of the oracles at 25% tolerance).\n";
  return 0;
}
