#include "workloads.hpp"

#include <stdexcept>

#include "probe.hpp"
#include "trace/generator.hpp"

namespace perfbench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;

    Workload alibaba;
    alibaba.name = "alibaba_day";
    alibaba.alibaba = true;
    alibaba.jobs = 200000;  // the Alibaba rate's mean count over a day
    alibaba.days = 1.0;
    alibaba.min_batch_interval_s = 2.0;
    alibaba.batch_window_s = 60.0;
    alibaba.tail_q = 0.999;
    v.push_back(alibaba);

    Workload fleet;
    fleet.name = "fleet_batch";
    fleet.jobs = 368000;  // 16x the Borg rate's mean count over a day
    fleet.days = 1.0;
    fleet.rate_multiplier = 16.0;
    fleet.capacity_scale = 16.0;
    fleet.min_batch_interval_s = 60.0;
    fleet.batch_window_s = 60.0;
    fleet.tail_q = 0.99;
    v.push_back(fleet);

    Workload storm;
    storm.name = "overload_storm";
    storm.jobs = 34500;  // 3x the Borg rate's mean count over half a day
    storm.days = 0.5;
    storm.rate_multiplier = 3.0;
    storm.min_batch_interval_s = 2.0;
    storm.batch_window_s = 60.0;
    storm.fault_storm = true;
    storm.solve_failure_rate = 0.35;
    storm.tail_q = 0.999;
    v.push_back(storm);
    return v;
  }();
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

namespace {

ww::env::FaultScheduleConfig storm_config(const Workload& w) {
  // The per-kind rates of bench_fault_storms' four generated storms, here
  // layered into one schedule; magnitudes are the library defaults.  The
  // storm is the same for every trace seed: how a storm lands relative to
  // the load swings the backlog by an order of magnitude, which would
  // swamp every other difference between two seeds.
  ww::env::FaultScheduleConfig c;
  c.seed = 801;
  c.horizon_seconds = w.days * 86400.0;
  c.num_regions = 5;
  c.outages_per_region_day = 6.0;
  c.outage_mean_seconds = 1800.0;
  c.flaps_per_region_day = 12.0;
  c.flap_mean_seconds = 600.0;
  c.flap_capacity_min = 0.3;
  c.flap_capacity_max = 0.8;
  c.bias_windows_per_region_day = 4.0;
  c.bias_mean_seconds = 7200.0;
  c.carbon_bias_min = 1.4;
  c.carbon_bias_max = 2.2;
  c.water_bias_min = 1.0;
  c.water_bias_max = 1.0;
  c.shocks_per_region_day = 3.0;
  c.shock_mean_seconds = 14400.0;
  c.shock_wsf_min = 0.5;
  c.shock_wsf_max = 1.5;
  c.solve_failure_rate = w.solve_failure_rate;
  return c;
}

ww::env::EnvironmentConfig environment_config() {
  ww::env::EnvironmentConfig c;
  c.seed = 20250612;
  c.horizon_days = 400;
  c.dataset = ww::env::WaterDataset::ElectricityMaps;
  c.carbon_intensity_scale = 1.0;
  c.water_intensity_scale = 1.0;
  return c;
}

}  // namespace

ww::core::WaterWiseConfig scheduler_config(const Workload& w) {
  ww::core::WaterWiseConfig c;
  c.lambda_co2 = 0.5;
  c.lambda_h2o = 0.5;
  c.lambda_ref = 0.1;
  c.history_window = 10;
  c.lambda_cost = 0.0;
  c.lambda_perf = 0.0;
  c.sigma = 10.0;
  c.delay_estimate_margin = 0.8;
  c.enable_soft_constraints = true;
  c.enable_slack_manager = true;
  c.enable_history = true;
  c.max_jobs_per_solve = 400;
  c.solver_threads = 1;
  c.degraded.enabled = true;
  c.degraded.intensity_jump_fraction = 0.4;
  c.degraded.flap_window_s = 900.0;
  c.degraded.degrade_after_events = 2;
  c.degraded.recover_after_clean = 3;
  c.degraded.recovery_windows = 3;
  c.degraded.degraded_cap_fraction = 0.25;
  c.degraded.recovery_cap_fraction = 0.5;
  c.solve_failure_rate = w.solve_failure_rate;
  c.fault_seed = 0x57415457ULL;
  c.retry_budget_multiplier = 8;
  c.trace = false;
  c.solver.max_nodes = 20000;
  c.solver.mip_gap_rel = 1e-4;
  c.solver.presolve = true;
  return c;
}

World::World(const Workload& w, std::uint64_t seed, SetupTimes& times,
             SpanLog* spans) {
  const std::int64_t t0 = now_ns();
  // Generate past the span without burst states, keep the first w.jobs
  // arrivals and stretch their submit times onto [0, span): the load is the
  // same for every seed (see workloads.hpp).
  const double span_s = w.days * 86400.0;
  for (double days = 1.5 * w.days; jobs_.size() <= w.jobs; days *= 2.0) {
    ww::trace::TraceConfig tc = w.alibaba ? ww::trace::alibaba_config(seed, days)
                                          : ww::trace::borg_config(seed, days);
    tc.rate_multiplier = w.rate_multiplier;
    tc.arrival.burst_rate_multiplier = 1.0;
    tc.arrival.calm_rate_multiplier = 1.0;
    jobs_ = ww::trace::generate_trace(tc);
  }
  const double stretch = span_s / jobs_[w.jobs].submit_time;
  jobs_.resize(w.jobs);
  for (ww::trace::Job& j : jobs_) j.submit_time *= stretch;
  const std::int64_t t1 = now_ns();

  sim_.batch_window_s = w.batch_window_s;
  sim_.min_batch_interval_s = w.min_batch_interval_s;
  sim_.tol = 0.25;
  sim_.capacity_scale = w.capacity_scale;
  sim_.record_jobs = false;
  sim_.integrate_footprints = true;

  const ww::env::EnvironmentConfig ec = environment_config();
  env_ = std::make_unique<ww::env::Environment>(
      ww::env::Environment::builtin(ec));
  footprint_ = std::make_unique<ww::footprint::FootprintModel>(
      *env_, ww::footprint::ServerSpec{}, 1.0);
  if (w.fault_storm) {
    // The ledger integrates the World view; the scheduler observes the
    // biased Controller view (as bench/common.cpp's run_campaign does).
    faults_ = std::make_unique<ww::env::FaultSchedule>(storm_config(w));
    env_->attach_faults(faults_.get(), ww::env::FaultView::World);
    observed_env_ = std::make_unique<ww::env::Environment>(
        ww::env::Environment::builtin(ec));
    observed_env_->attach_faults(faults_.get(),
                                 ww::env::FaultView::Controller);
    observed_footprint_ = std::make_unique<ww::footprint::FootprintModel>(
        *observed_env_, ww::footprint::ServerSpec{}, 1.0);
  }
  const std::int64_t t2 = now_ns();

  times.generate_s = static_cast<double>(t1 - t0) * 1e-9;
  times.env_s = static_cast<double>(t2 - t1) * 1e-9;
  if (spans != nullptr) {
    spans->add("generate_trace", t0, t1);
    spans->add("build_environment", t1, t2);
  }
}

ww::dc::CampaignResult World::run(ww::dc::Scheduler& scheduler) const {
  ww::dc::Simulator sim(*env_, *footprint_, sim_);
  if (faults_)
    sim.set_fault_injection(faults_.get(), observed_env_.get(),
                            observed_footprint_.get());
  return sim.run(jobs_, scheduler);
}

}  // namespace perfbench
