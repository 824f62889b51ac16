// Table 2: average service time (normalized to execution time) and % of jobs
// violating delay tolerance, for Baseline / Carbon-Greedy-Opt /
// Water-Greedy-Opt / WaterWise across tolerances 25%..100%.
#include "common.hpp"

int main() {
  using namespace ww;
  bench::banner("Table 2: service time and delay-tolerance violations",
                "Sec. 6, Table 2");

  const auto jobs =
      trace::generate_trace(trace::borg_config(7, bench::campaign_days()));
  const std::vector<double> tolerances = {0.25, 0.50, 0.75, 1.00};
  const std::vector<bench::Policy> policies = {
      bench::Policy::Baseline, bench::Policy::CarbonGreedyOpt,
      bench::Policy::WaterGreedyOpt, bench::Policy::WaterWise};

  std::vector<std::vector<dc::CampaignResult>> results(
      policies.size(), std::vector<dc::CampaignResult>(tolerances.size()));
  util::global_parallel_for(
      bench::bench_jobs(), policies.size() * tolerances.size(),
      [&](std::size_t k) {
        const std::size_t p = k / tolerances.size();
        const std::size_t t = k % tolerances.size();
        bench::CampaignSpec spec;
        spec.tol = tolerances[t];
        results[p][t] = bench::run_policy(jobs, policies[p], spec);
      });

  util::Table service({"Scheme", "Service 25%", "Service 50%", "Service 75%",
                       "Service 100%"});
  util::Table violations({"Scheme", "Viol 25%", "Viol 50%", "Viol 75%",
                          "Viol 100%"});
  for (std::size_t p = 0; p < policies.size(); ++p) {
    std::vector<std::string> srow = {results[p][0].scheduler_name};
    std::vector<std::string> vrow = {results[p][0].scheduler_name};
    for (std::size_t t = 0; t < tolerances.size(); ++t) {
      srow.push_back(util::Table::fixed(results[p][t].mean_service_norm(), 3) +
                     "x");
      vrow.push_back(util::Table::fixed(results[p][t].violation_pct(), 2) + "%");
    }
    service.add_row(std::move(srow));
    violations.add_row(std::move(vrow));
  }
  std::cout << "\nAverage service time (normalized to execution time):\n";
  service.print(std::cout);
  std::cout << "\nDelay-tolerance violations (% of jobs):\n";
  violations.print(std::cout);

  std::cout << "\nShape check vs. paper: Baseline 1.00x / 0%; WaterWise's mean\n"
               "service stays far below 1+TOL (paper: 1.03x-1.13x) with rare\n"
               "violations that shrink as tolerance grows; oracles delay more\n"
               "(paper: up to 1.50x) since they chase future intensities.\n";
  return 0;
}
