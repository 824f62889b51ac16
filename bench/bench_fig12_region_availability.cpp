// Fig. 12: sensitivity to region availability — WaterWise on subsets of the
// five regions (paper panels: Zurich-Madrid-Oregon-Milan, Zurich-Milan-
// Mumbai, Zurich-Oregon).  Each (subset, policy) pair is an independent
// campaign-runner scenario building its own trace and environment.
#include <algorithm>

#include "common.hpp"

namespace {

ww::dc::CampaignResult run_subset(const std::vector<int>& regions,
                                  ww::bench::Policy policy, double days) {
  using namespace ww;
  auto trace_cfg = trace::borg_config(7, days);
  trace_cfg.num_regions = static_cast<int>(regions.size());
  trace_cfg.region_weights.clear();  // uniform over the available regions
  const auto jobs = trace::generate_trace(trace_cfg);

  const env::Environment env = env::Environment::builtin_subset(regions);
  const footprint::FootprintModel fp(env);
  dc::SimConfig sim_cfg;
  sim_cfg.tol = 0.5;
  dc::Simulator sim(env, fp, sim_cfg);
  const auto scheduler = bench::make_scheduler(policy);
  return sim.run(jobs, *scheduler);
}

}  // namespace

int main() {
  using namespace ww;
  bench::banner("Figure 12: region-availability sensitivity",
                "Sec. 6, Fig. 12");

  // Index map: 0 Zurich, 1 Madrid, 2 Oregon, 3 Milan, 4 Mumbai.
  const std::vector<std::pair<std::string, std::vector<int>>> subsets = {
      {"Zurich-Madrid-Oregon-Milan", {0, 1, 2, 3}},
      {"Zurich-Milan-Mumbai", {0, 3, 4}},
      {"Zurich-Oregon", {0, 2}},
  };
  const double days = bench::campaign_days();

  // Dynamic-availability panel (shared fault plumbing): instead of removing
  // regions structurally, a generated outage schedule takes them down and
  // brings them back mid-campaign — the scheduler must ride through.
  env::FaultScheduleConfig outage_cfg;
  outage_cfg.seed = 1214;
  outage_cfg.horizon_seconds = days * 86400.0;
  outage_cfg.outages_per_region_day = 2.0;
  const env::FaultSchedule outages(outage_cfg);
  const auto full_jobs =
      trace::generate_trace(trace::borg_config(7, days));
  bench::CampaignSpec outage_spec;
  outage_spec.tol = 0.5;
  outage_spec.faults = &outages;

  obs::Registry storm_registry;
  dc::CampaignRunner runner(bench::campaign_config());
  for (const auto& [name, regions] : subsets) {
    runner.add_baseline(name, "Baseline", [&, regions](dc::ScenarioContext&) {
      return run_subset(regions, bench::Policy::Baseline, days);
    });
    runner.add({name, "WaterWise", false, [&, regions](dc::ScenarioContext&) {
                  return run_subset(regions, bench::Policy::WaterWise, days);
                }});
  }
  const std::string storm_name = "All five, injected outages";
  runner.add_baseline(storm_name, "Baseline", [&](dc::ScenarioContext&) {
    return bench::run_policy(full_jobs, bench::Policy::Baseline, outage_spec);
  });
  runner.add({storm_name, "WaterWise", false, [&](dc::ScenarioContext&) {
                core::WaterWiseScheduler ww;
                auto res = bench::run_campaign(full_jobs, ww, outage_spec);
                storm_registry = ww.registry();
                return res;
              }});
  const auto outcomes = bench::run_and_time(runner);

  util::Table table({"Available regions", "Carbon saving %", "Water saving %"});
  const std::size_t num_groups = subsets.size() + 1;
  for (std::size_t i = 0; i < num_groups; ++i) {
    const dc::CampaignResult& base = outcomes[2 * i].result;
    const dc::CampaignResult& ww = outcomes[2 * i + 1].result;
    table.add_row({i < subsets.size() ? subsets[i].first : storm_name,
                   util::Table::fixed(ww.carbon_saving_pct_vs(base), 2),
                   util::Table::fixed(ww.water_saving_pct_vs(base), 2)});
  }
  table.print(std::cout);
  std::cout << "\n";
  bench::print_degradation_counters(storm_name, storm_registry);
  std::cout << "\nShape check vs. paper: savings persist under every subset; the\n"
               "Zurich-Milan-Mumbai panel (large carbon-intensity spread) yields\n"
               "the largest carbon savings.  The injected-outage panel loses\n"
               "availability dynamically instead of structurally.\n";

  // Standing invariant: a thread-count sweep over the full five-region
  // environment (every subset runs the same plan/solve/commit path) must
  // reproduce the serial decision stream byte for byte — with and without
  // an injected fault campaign attached.
  bench::CampaignSpec eq_spec;
  eq_spec.tol = 0.5;
  const auto eq_jobs =
      trace::generate_trace(trace::borg_config(7, std::min(0.05, days)));
  if (!bench::check_chunk_parallel_equivalence(eq_jobs, eq_spec)) return 1;
  env::FaultScheduleConfig eq_fault_cfg = outage_cfg;
  eq_fault_cfg.horizon_seconds = std::min(0.05, days) * 86400.0;
  eq_fault_cfg.bias_windows_per_region_day = 4.0;
  const env::FaultSchedule eq_faults(eq_fault_cfg);
  eq_spec.faults = &eq_faults;
  if (!bench::check_chunk_parallel_equivalence(eq_jobs, eq_spec)) return 1;
  return 0;
}
