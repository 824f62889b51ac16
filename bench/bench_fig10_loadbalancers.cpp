// Fig. 10: WaterWise vs. the sustainability-unaware load balancers
// (Round-Robin, Least-Load).  Paper: WaterWise wins by >19.5% carbon and
// >17.8% water.
#include "common.hpp"

int main() {
  using namespace ww;
  bench::banner("Figure 10: load-balancer comparison", "Sec. 6, Fig. 10");

  const auto jobs =
      trace::generate_trace(trace::borg_config(7, bench::campaign_days()));
  bench::CampaignSpec spec;
  spec.tol = 0.5;

  dc::CampaignResult base, rr, ll, ww;
  util::global_parallel_for(bench::bench_jobs(), 4, [&](std::size_t k) {
    switch (k) {
      case 0: base = bench::run_policy(jobs, bench::Policy::Baseline, spec); break;
      case 1: rr = bench::run_policy(jobs, bench::Policy::RoundRobin, spec); break;
      case 2: ll = bench::run_policy(jobs, bench::Policy::LeastLoad, spec); break;
      case 3: ww = bench::run_policy(jobs, bench::Policy::WaterWise, spec); break;
    }
  });

  util::Table table({"Scheme", "Carbon saving %", "Water saving %"});
  for (const auto* r : {&rr, &ll, &ww}) {
    table.add_row({r->scheduler_name,
                   util::Table::fixed(r->carbon_saving_pct_vs(base), 2),
                   util::Table::fixed(r->water_saving_pct_vs(base), 2)});
  }
  table.print(std::cout);

  std::cout << "\nWaterWise margin over the better load balancer: "
            << util::Table::fixed(
                   ww.carbon_saving_pct_vs(base) -
                       std::max(rr.carbon_saving_pct_vs(base),
                                ll.carbon_saving_pct_vs(base)), 2)
            << " pp carbon, "
            << util::Table::fixed(
                   ww.water_saving_pct_vs(base) -
                       std::max(rr.water_saving_pct_vs(base),
                                ll.water_saving_pct_vs(base)), 2)
            << " pp water\n"
            << "Shape check vs. paper: intensity-blind spreading saves little or\n"
               "nothing; WaterWise clearly dominates (paper: >19.5% / >17.8%).\n";
  return 0;
}
