// End-to-end campaigns across every scheduler on a shared trace: the
// cross-scheduler structure the paper's evaluation depends on.
#include <gtest/gtest.h>

#include <memory>

#include "core/waterwise.hpp"
#include "dc/simulator.hpp"
#include "sched/basic.hpp"
#include "sched/ecovisor.hpp"
#include "sched/greedy_opt.hpp"
#include "trace/generator.hpp"

namespace ww {
namespace {

env::EnvironmentConfig small_env() {
  env::EnvironmentConfig cfg;
  cfg.horizon_days = 5;
  return cfg;
}

class CampaignTest : public ::testing::Test {
 protected:
  env::Environment env_ = env::Environment::builtin(small_env());
  footprint::FootprintModel fp_{env_};
  std::vector<trace::Job> jobs_ =
      trace::generate_trace(trace::borg_config(42, 0.12));

  dc::CampaignResult run(dc::Scheduler& s, double tol = 0.5) {
    dc::SimConfig cfg;
    cfg.tol = tol;
    dc::Simulator sim(env_, fp_, cfg);
    return sim.run(jobs_, s);
  }
};

TEST_F(CampaignTest, FullComparisonMatrix) {
  sched::BaselineScheduler baseline;
  sched::RoundRobinScheduler rr;
  sched::LeastLoadScheduler ll;
  sched::EcovisorScheduler eco;
  sched::GreedyOptScheduler carbon(sched::GreedyMetric::Carbon);
  sched::GreedyOptScheduler water(sched::GreedyMetric::Water);
  core::WaterWiseScheduler ww;

  const auto r_base = run(baseline);
  const auto r_rr = run(rr);
  const auto r_ll = run(ll);
  const auto r_eco = run(eco);
  const auto r_c = run(carbon);
  const auto r_w = run(water);
  const auto r_ww = run(ww);

  // Everyone finishes the whole trace.
  for (const auto* r : {&r_base, &r_rr, &r_ll, &r_eco, &r_c, &r_w, &r_ww})
    EXPECT_EQ(r->num_jobs, static_cast<long>(jobs_.size()));

  // Headline ordering (Figs. 5, 7, 10): WaterWise beats Baseline, Ecovisor,
  // and both load balancers on BOTH metrics.
  EXPECT_GT(r_ww.carbon_saving_pct_vs(r_base), 0.0);
  EXPECT_GT(r_ww.water_saving_pct_vs(r_base), 0.0);
  EXPECT_LT(r_ww.total_carbon_g, r_eco.total_carbon_g);
  EXPECT_LT(r_ww.total_water_l, r_eco.total_water_l);
  EXPECT_LT(r_ww.total_carbon_g, r_rr.total_carbon_g);
  EXPECT_LT(r_ww.total_water_l, r_rr.total_water_l);
  EXPECT_LT(r_ww.total_carbon_g, r_ll.total_carbon_g);
  EXPECT_LT(r_ww.total_water_l, r_ll.total_water_l);

  // Oracle sandwich (Fig. 5): each oracle is the extreme point on its own
  // metric among sustainability-aware schedulers.
  EXPECT_LE(r_c.total_carbon_g, r_ww.total_carbon_g * 1.02);
  EXPECT_LE(r_w.total_water_l, r_ww.total_water_l * 1.02);

  // Co-optimization (Fig. 3a): each oracle is suboptimal on the other metric
  // relative to WaterWise.
  EXPECT_LT(r_ww.total_water_l, r_c.total_water_l * 1.01);
  EXPECT_LT(r_ww.total_carbon_g, r_w.total_carbon_g * 1.01);
}

TEST_F(CampaignTest, ToleranceSweepImprovesWaterWise) {
  sched::BaselineScheduler baseline;
  const auto base = run(baseline, 0.25);
  double prev_carbon_saving = -100.0;
  for (const double tol : {0.25, 1.0}) {
    core::WaterWiseScheduler ww;
    const auto res = run(ww, tol);
    const double saving = res.carbon_saving_pct_vs(base);
    EXPECT_GT(saving, prev_carbon_saving - 3.0)
        << "tolerance " << tol << " regressed savings";
    prev_carbon_saving = saving;
  }
}

TEST_F(CampaignTest, RegionSubsetsStillWork) {
  // Fig. 12: drop regions and re-run; savings persist with fewer choices.
  for (const std::vector<int>& subset :
       {std::vector<int>{0, 2}, std::vector<int>{0, 3, 4}}) {
    env::Environment env = env::Environment::builtin_subset(subset, small_env());
    footprint::FootprintModel fp(env);
    auto cfg = trace::borg_config(7, 0.08);
    cfg.num_regions = static_cast<int>(subset.size());
    cfg.region_weights.clear();
    const auto jobs = trace::generate_trace(cfg);
    dc::SimConfig sim_cfg;
    sim_cfg.tol = 0.5;
    dc::Simulator sim(env, fp, sim_cfg);
    sched::BaselineScheduler baseline;
    // Injected solve failures (WW_FAULT_SOLVES) are pinned off: the
    // savings assertion is about the MILP's placements, not the fallback's.
    core::WaterWiseConfig ww_cfg;
    ww_cfg.solve_failure_rate = 0.0;
    core::WaterWiseScheduler ww(ww_cfg);
    const auto base = sim.run(jobs, baseline);
    const auto res = sim.run(jobs, ww);
    EXPECT_EQ(res.num_jobs, static_cast<long>(jobs.size()));
    // With few regions the carbon/water tension can force a sacrifice on
    // one metric (e.g. Zurich<->Oregon trades carbon for water); the
    // invariant is that the *joint* weighted objective improves.
    const double joint = 0.5 * res.carbon_saving_pct_vs(base) +
                         0.5 * res.water_saving_pct_vs(base);
    EXPECT_GT(joint, 0.0);
  }
}

TEST_F(CampaignTest, WriDatasetCampaign) {
  // Fig. 6: the savings structure survives the water-dataset swap.
  env::EnvironmentConfig cfg = small_env();
  cfg.dataset = env::WaterDataset::WorldResourcesInstitute;
  env::Environment env = env::Environment::builtin(cfg);
  footprint::FootprintModel fp(env);
  dc::SimConfig sim_cfg;
  sim_cfg.tol = 0.5;
  dc::Simulator sim(env, fp, sim_cfg);
  sched::BaselineScheduler baseline;
  core::WaterWiseScheduler ww;
  const auto base = sim.run(jobs_, baseline);
  const auto res = sim.run(jobs_, ww);
  EXPECT_GT(res.carbon_saving_pct_vs(base), 0.0);
  EXPECT_GT(res.water_saving_pct_vs(base), 0.0);
}

TEST_F(CampaignTest, AlibabaTraceCampaign) {
  // Fig. 9: WaterWise remains effective under the 8.5x-rate trace.
  const auto jobs = trace::generate_trace(trace::alibaba_config(11, 0.03));
  dc::SimConfig sim_cfg;
  sim_cfg.tol = 0.5;
  dc::Simulator sim(env_, fp_, sim_cfg);
  sched::BaselineScheduler baseline;
  core::WaterWiseScheduler ww;
  const auto base = sim.run(jobs, baseline);
  const auto res = sim.run(jobs, ww);
  EXPECT_EQ(res.num_jobs, static_cast<long>(jobs.size()));
  EXPECT_GT(res.carbon_saving_pct_vs(base), 0.0);
}

}  // namespace
}  // namespace ww
