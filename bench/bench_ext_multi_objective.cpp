// Extension bench (paper Sec. 7, Discussion): cost and performance as
// additional objectives.  The paper sketches treating financial cost and
// performance as extra weighted terms; this bench quantifies the resulting
// trade-off frontier on the Borg-rate trace.
#include "common.hpp"

int main() {
  using namespace ww;
  bench::banner("Extension: cost & performance objectives (Sec. 7)",
                "Sec. 7 Discussion");

  const auto jobs =
      trace::generate_trace(trace::borg_config(7, bench::campaign_days()));

  struct Case {
    std::string label;
    core::WaterWiseConfig cfg;
  };
  std::vector<Case> cases;
  {
    Case paper{"Paper objective (carbon+water)", {}};
    cases.push_back(paper);

    Case cost = paper;
    cost.label = "+ cost (lambda_cost = 0.5)";
    cost.cfg.lambda_cost = 0.5;
    cases.push_back(cost);

    Case cost_hard = paper;
    cost_hard.label = "+ cost (lambda_cost = 2.0)";
    cost_hard.cfg.lambda_cost = 2.0;
    cases.push_back(cost_hard);

    Case perf = paper;
    perf.label = "+ perf (lambda_perf = 0.5)";
    perf.cfg.lambda_perf = 0.5;
    cases.push_back(perf);

    Case perf_hard = paper;
    perf_hard.label = "+ perf (lambda_perf = 2.0)";
    perf_hard.cfg.lambda_perf = 2.0;
    cases.push_back(perf_hard);

    Case all = paper;
    all.label = "+ cost 0.3 + perf 0.3";
    all.cfg.lambda_cost = 0.3;
    all.cfg.lambda_perf = 0.3;
    cases.push_back(all);
  }

  bench::CampaignSpec spec;
  spec.tol = 0.5;
  dc::CampaignResult base;
  std::vector<dc::CampaignResult> results(cases.size());
  util::global_parallel_for(bench::bench_jobs(), cases.size() + 1, [&](std::size_t k) {
    if (k == cases.size()) {
      base = bench::run_policy(jobs, bench::Policy::Baseline, spec);
      return;
    }
    results[k] =
        bench::run_policy(jobs, bench::Policy::WaterWise, spec, cases[k].cfg);
  });

  util::Table table({"Objective", "Carbon saving %", "Water saving %",
                     "Cost saving %", "Service norm"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    table.add_row({cases[i].label,
                   util::Table::fixed(results[i].carbon_saving_pct_vs(base), 2),
                   util::Table::fixed(results[i].water_saving_pct_vs(base), 2),
                   util::Table::fixed(results[i].cost_saving_pct_vs(base), 2),
                   util::Table::fixed(results[i].mean_service_norm(), 3) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nReading guide: adding the cost term recovers electricity-cost\n"
               "savings at some carbon/water expense; adding the perf term pulls\n"
               "the mean service norm toward 1.0 by discouraging long transfers —\n"
               "the integration path the paper's Discussion proposes.\n";
  return 0;
}
