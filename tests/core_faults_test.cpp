// Graceful-degradation coverage for the scheduler (core/waterwise.hpp):
// the retry-then-degrade ladder never drops a job silently even when every
// MILP attempt is failed by injection, the hard rung's pre-pass places
// forced chunks without a solve and skips infeasible hard models, injected
// failures stay byte-identical across solver thread counts, a total outage
// defers explicitly and places everything after the blackout, a chunk-solve
// exception surfaces fail-fast with chunk/window context, and the
// per-region state machine walks Normal -> Degraded -> Recovery -> Normal
// with its hard-cap rails engaged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/waterwise.hpp"
#include "dc/simulator.hpp"
#include "env/faults.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace ww::core {
namespace {

env::EnvironmentConfig small_env() {
  env::EnvironmentConfig cfg;
  cfg.horizon_days = 3;
  return cfg;
}

std::vector<trace::Job> burst_trace(int count, double at, int home = 2) {
  std::vector<trace::Job> jobs;
  util::Rng rng(99);
  for (int i = 0; i < count; ++i) {
    trace::Job j;
    j.id = static_cast<std::uint64_t>(i);
    j.submit_time = at;
    j.home_region = home;
    trace::sample_instance(i % trace::num_benchmarks(), rng, j);
    jobs.push_back(j);
  }
  return jobs;
}

/// Fixed free-capacity view for driving schedule() without a simulator.
class FixedCapacity final : public dc::CapacityView {
 public:
  explicit FixedCapacity(std::vector<int> caps) : caps_(std::move(caps)) {}
  [[nodiscard]] int num_regions() const override {
    return static_cast<int>(caps_.size());
  }
  [[nodiscard]] int capacity(int region) const override {
    return caps_[static_cast<std::size_t>(region)];
  }
  [[nodiscard]] int free_at(int region, double) const override {
    return caps_[static_cast<std::size_t>(region)];
  }
  [[nodiscard]] int max_occupancy(int, double, double) const override {
    return 0;
  }

 private:
  std::vector<int> caps_;
};

/// Lifetime value of the registry counter "sched.<name>".
long counter(const obs::Registry& reg, const std::string& name) {
  const std::uint64_t* v = reg.find_counter("sched." + name);
  EXPECT_NE(v, nullptr) << name;
  return v == nullptr ? 0 : static_cast<long>(*v);
}

struct DirectRig {
  env::Environment env = env::Environment::builtin(small_env());
  footprint::FootprintModel fp{env};
  std::vector<trace::Job> jobs;
  std::vector<dc::PendingJob> batch;

  explicit DirectRig(int count, int home = 2)
      : jobs(burst_trace(count, 0.0, home)) {
    batch.reserve(jobs.size());
    for (const trace::Job& j : jobs) {
      dc::PendingJob p;
      p.job = &j;
      p.first_seen = 0.0;
      p.est_exec_s = j.exec_seconds > 0.0 ? j.exec_seconds : 100.0;
      p.est_energy_kwh = 1.0;
      batch.push_back(p);
    }
  }

  [[nodiscard]] std::vector<dc::Decision> run(WaterWiseScheduler& ww,
                                              const std::vector<int>& caps,
                                              double now = 0.0,
                                              double tol = 0.5) const {
    const FixedCapacity view(caps);
    dc::ScheduleContext ctx;
    ctx.now = now;
    ctx.tol = tol;
    ctx.env = &env;
    ctx.footprint = &fp;
    ctx.capacity = &view;
    return ww.schedule(batch, ctx);
  }
};

TEST(RetryLadder, AllAttemptsInjectedStillPlacesEveryJobViaFallback) {
  // solve_failure_rate = 1 fails every rung that consults the predicate:
  // the probe result is discarded, the primary solve is discarded, the
  // relaxed-budget retry runs (and is discarded too), and the greedy
  // fallback must then place the whole chunk — never a silent drop.
  const DirectRig rig(12);
  WaterWiseConfig cfg;
  cfg.solve_failure_rate = 1.0;
  cfg.fault_seed = 1001;
  WaterWiseScheduler ww(cfg);
  const auto placed = rig.run(ww, {5, 5, 10, 5, 5});

  ASSERT_EQ(placed.size(), 12u);
  std::set<std::uint64_t> ids;
  for (const dc::Decision& d : placed) ids.insert(d.job_id);
  EXPECT_EQ(ids.size(), 12u) << "a job was placed twice";

  const obs::Registry& reg = ww.registry();
  // One chunk (default max_jobs_per_solve), three injected discards on it
  // (post-probe, post-primary, post-retry), one budgeted retry, and every
  // placement from the greedy fallback.
  EXPECT_EQ(counter(reg, "fault_events"), 3);
  EXPECT_EQ(counter(reg, "solve_retries"), 1);
  EXPECT_EQ(counter(reg, "fallback_placements"), 12);
  EXPECT_EQ(counter(reg, "deferred_jobs"), 0);
}

/// The fallback rung's placement rule, stated independently of the
/// scheduler: jobs longest-estimate first (ties in batch order), each at the
/// cheapest delay-admissible region with quota left by normalised
/// lambda-weighted carbon/water intensity; failing that (violations
/// allowed) the least exceedance, then the cheapest; ties to the lowest
/// index.  Returns the region per batch index, -1 = deferred.
std::vector<int> reference_fallback(const DirectRig& rig,
                                    const WaterWiseConfig& cfg,
                                    std::vector<int> quota, double now,
                                    double tol, bool allow_late) {
  const int n = static_cast<int>(quota.size());
  std::vector<double> ci(static_cast<std::size_t>(n));
  std::vector<double> wi(static_cast<std::size_t>(n));
  double ci_max = 1e-12;
  double wi_max = 1e-12;
  for (int r = 0; r < n; ++r) {
    ci[static_cast<std::size_t>(r)] = rig.env.carbon_intensity(r, now);
    wi[static_cast<std::size_t>(r)] = rig.env.water_intensity(r, now);
    ci_max = std::max(ci_max, ci[static_cast<std::size_t>(r)]);
    wi_max = std::max(wi_max, wi[static_cast<std::size_t>(r)]);
  }
  const auto cost = [&](int r) {
    return cfg.lambda_co2 * ci[static_cast<std::size_t>(r)] / ci_max +
           cfg.lambda_h2o * wi[static_cast<std::size_t>(r)] / wi_max;
  };

  std::vector<std::size_t> order(rig.batch.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return rig.batch[a].est_exec_s > rig.batch[b].est_exec_s;
                   });
  std::vector<int> region(rig.batch.size(), -1);
  for (const std::size_t i : order) {
    const dc::PendingJob& p = rig.batch[i];
    const double allowance =
        std::max(0.0, tol * cfg.delay_estimate_margin * p.est_exec_s -
                          (now - p.first_seen));
    const auto exceed = [&](int r) {
      return rig.env.transfer_latency_seconds(p.job->home_region, r,
                                              p.job->package_bytes) -
             allowance;
    };
    int best = -1;
    for (int r = 0; r < n; ++r)
      if (quota[static_cast<std::size_t>(r)] > 0 && exceed(r) <= 0.0 &&
          (best < 0 || cost(r) < cost(best)))
        best = r;
    if (best < 0 && allow_late)
      for (int r = 0; r < n; ++r)
        if (quota[static_cast<std::size_t>(r)] > 0 &&
            (best < 0 || exceed(r) < exceed(best) ||
             (exceed(r) == exceed(best) && cost(r) < cost(best))))
          best = r;
    if (best < 0) continue;
    --quota[static_cast<std::size_t>(best)];
    region[i] = best;
  }
  return region;
}

TEST(RetryLadder, FallbackPicksCheapestAdmissibleThenLeastExceedance) {
  // Every solve is failed by injection, so every placement comes from the
  // fallback rung.  The home region has no capacity and the tolerance is
  // tight, so some jobs have no delay-admissible region at all: with soft
  // constraints on they take the least exceedance, with them off they
  // defer.  Every decision must match the independent reference.
  const DirectRig rig(12);
  const std::vector<int> caps = {4, 3, 0, 4, 3};
  const double now = 0.0;
  const double tol = 0.3;
  for (const bool soft : {true, false}) {
    WaterWiseConfig cfg;
    cfg.solve_failure_rate = 1.0;
    cfg.fault_seed = 1003;
    cfg.enable_soft_constraints = soft;
    WaterWiseScheduler ww(cfg);
    const std::vector<int> ref =
        reference_fallback(rig, ww.config(), caps, now, tol, soft);
    const auto placed = rig.run(ww, caps, now, tol);

    // The scenario must exercise both halves of the rule.
    const std::vector<int> strict =
        reference_fallback(rig, ww.config(), caps, now, tol, false);
    const long late = std::count(strict.begin(), strict.end(), -1);
    ASSERT_GT(late, 0) << "no job lacks an admissible region";
    ASSERT_LT(late, static_cast<long>(strict.size()))
        << "no job has an admissible region";

    long expected_placed = 0;
    for (const int r : ref) expected_placed += r >= 0 ? 1 : 0;
    ASSERT_EQ(static_cast<long>(placed.size()), expected_placed)
        << "soft=" << soft;
    for (const dc::Decision& d : placed) {
      const auto i = static_cast<std::size_t>(d.job_id);
      EXPECT_EQ(d.region, ref[i]) << "job " << d.job_id << " soft=" << soft;
      const trace::Job& job = rig.jobs[i];
      EXPECT_EQ(d.start_time,
                now + rig.env.transfer_latency_seconds(
                          job.home_region, d.region, job.package_bytes))
          << "job " << d.job_id;
    }
    EXPECT_EQ(counter(ww.registry(), "fallback_placements"), expected_placed)
        << "soft=" << soft;
    EXPECT_EQ(counter(ww.registry(), "deferred_jobs"),
              static_cast<long>(ref.size()) - expected_placed)
        << "soft=" << soft;
    if (soft) {
      EXPECT_EQ(expected_placed, static_cast<long>(ref.size()));
    } else {
      EXPECT_EQ(expected_placed, static_cast<long>(ref.size()) - late);
    }
  }
}

/// The regions the hard model admits per batch index, stated independently
/// of the scheduler: quota left and transfer latency within the Eq. 11
/// allowance.
std::vector<std::vector<int>> admissible_regions(const DirectRig& rig,
                                                 const WaterWiseConfig& cfg,
                                                 const std::vector<int>& quota,
                                                 double now, double tol) {
  std::vector<std::vector<int>> out(rig.batch.size());
  for (std::size_t i = 0; i < rig.batch.size(); ++i) {
    const dc::PendingJob& p = rig.batch[i];
    const double allowance =
        std::max(0.0, tol * cfg.delay_estimate_margin * p.est_exec_s -
                          (now - p.first_seen));
    for (int r = 0; r < static_cast<int>(quota.size()); ++r)
      if (quota[static_cast<std::size_t>(r)] > 0 &&
          rig.env.transfer_latency_seconds(p.job->home_region, r,
                                           p.job->package_bytes) -
                  allowance <=
              0.0)
        out[i].push_back(r);
  }
  return out;
}

/// The default config with no injected solve failures, whatever
/// WW_FAULT_SOLVES says: the pre-pass tests count exact solver calls.
WaterWiseConfig uninjected() {
  WaterWiseConfig cfg;
  cfg.solve_failure_rate = 0.0;
  return cfg;
}

/// Decisions per region never exceed `caps`.
void expect_within_caps(const std::vector<dc::Decision>& placed,
                        const std::vector<int>& caps) {
  std::vector<int> used(caps.size(), 0);
  for (const dc::Decision& d : placed)
    ++used[static_cast<std::size_t>(d.region)];
  for (std::size_t r = 0; r < caps.size(); ++r)
    EXPECT_LE(used[r], caps[r]) << "region " << r;
}

TEST(ForcedPrePass, AllForcedChunkIsPlacedWithoutAModel) {
  // Each job has one admissible region: its home at a tight tolerance, or
  // the only region with quota at a loose one.  That is the hard model's
  // only feasible point, and the chunk must be placed there with no solve.
  const DirectRig rig(12);
  const double now = 0.0;
  for (const auto& [caps, tol] :
       {std::pair<std::vector<int>, double>{{5, 5, 12, 5, 5}, 0.01},
        std::pair<std::vector<int>, double>{{0, 12, 0, 0, 0}, 5.0}}) {
    WaterWiseScheduler ww(uninjected());
    const auto admissible =
        admissible_regions(rig, ww.config(), caps, now, tol);
    for (std::size_t i = 0; i < admissible.size(); ++i)
      ASSERT_EQ(admissible[i].size(), 1u) << "job " << i << " is not forced";
    const auto placed = rig.run(ww, caps, now, tol);

    ASSERT_EQ(placed.size(), rig.batch.size()) << "tol=" << tol;
    for (std::size_t k = 0; k < placed.size(); ++k) {
      const dc::Decision& d = placed[k];
      EXPECT_EQ(d.job_id, rig.jobs[k].id) << "decisions leave in job order";
      const auto i = static_cast<std::size_t>(d.job_id);
      EXPECT_EQ(d.region, admissible[i][0]) << "job " << i;
      const trace::Job& job = rig.jobs[i];
      EXPECT_EQ(d.start_time,
                now + rig.env.transfer_latency_seconds(
                          job.home_region, d.region, job.package_bytes))
          << "job " << i;
    }
    const obs::Registry& reg = ww.registry();
    EXPECT_EQ(counter(reg, "milp_solves"), 0) << "tol=" << tol;
    EXPECT_EQ(counter(reg, "forced_chunks"), 1) << "tol=" << tol;
    EXPECT_EQ(counter(reg, "soft_fallbacks"), 0) << "tol=" << tol;
    EXPECT_EQ(counter(reg, "deferred_jobs"), 0) << "tol=" << tol;
  }
}

TEST(ForcedPrePass, ForcedOverflowGoesStraightToTheSoftModel) {
  // Every job is forced home, but the home quota holds 4 of 12: the hard
  // model is infeasible, so only the soft model is built and solved.
  const DirectRig rig(12);
  const std::vector<int> caps = {5, 5, 4, 5, 5};
  const double tol = 0.01;
  WaterWiseScheduler ww(uninjected());
  for (const auto& regions : admissible_regions(rig, ww.config(), caps, 0.0,
                                                tol))
    ASSERT_EQ(regions, std::vector<int>{2});
  const auto placed = rig.run(ww, caps, 0.0, tol);

  ASSERT_EQ(placed.size(), 12u);
  std::set<std::uint64_t> ids;
  for (const dc::Decision& d : placed) ids.insert(d.job_id);
  EXPECT_EQ(ids.size(), 12u) << "a job was placed twice";
  expect_within_caps(placed, caps);
  const obs::Registry& reg = ww.registry();
  EXPECT_EQ(counter(reg, "soft_fallbacks"), 1);
  EXPECT_EQ(counter(reg, "milp_solves"), 1) << "only the soft model solves";
  EXPECT_EQ(counter(reg, "forced_chunks"), 0);
  EXPECT_EQ(counter(reg, "solve_retries"), 0);
  EXPECT_EQ(counter(reg, "deferred_jobs"), 0);
}

TEST(ForcedPrePass, ForcedOverflowWithoutSofteningDefersTheOverflow) {
  // The soft-disabled ablation on the scenario above: the pre-pass proves
  // the hard model infeasible, so there is no retry, and the fallback
  // places what the home quota holds.  The rest has no admissible region
  // in the spill pool either and defers.
  const DirectRig rig(12);
  const std::vector<int> caps = {5, 5, 4, 5, 5};
  const double tol = 0.01;
  WaterWiseConfig cfg = uninjected();
  cfg.enable_soft_constraints = false;
  WaterWiseScheduler ww(cfg);
  const std::vector<int> ref =
      reference_fallback(rig, ww.config(), caps, 0.0, tol, false);
  const long expected_placed = std::count(ref.begin(), ref.end(), 2);
  ASSERT_EQ(expected_placed, 4);
  const auto placed = rig.run(ww, caps, 0.0, tol);

  ASSERT_EQ(static_cast<long>(placed.size()), expected_placed);
  for (const dc::Decision& d : placed)
    EXPECT_EQ(d.region, ref[static_cast<std::size_t>(d.job_id)])
        << "job " << d.job_id;
  const obs::Registry& reg = ww.registry();
  EXPECT_EQ(counter(reg, "solve_retries"), 0);
  EXPECT_EQ(counter(reg, "milp_solves"), 0);
  EXPECT_EQ(counter(reg, "fallback_placements"), expected_placed);
  EXPECT_EQ(counter(reg, "spill_resolves"), 1);
  EXPECT_EQ(counter(reg, "deferred_jobs"), 12 - expected_placed);
}

TEST(ForcedPrePass, MixedChunkStillBuildsTheHardModel) {
  // At the default tolerance some jobs may move and some may not: the
  // pre-pass cannot decide the chunk, so the hard model does.
  const DirectRig rig(12);
  const std::vector<int> caps = {5, 5, 10, 5, 5};
  const double tol = 0.5;
  WaterWiseScheduler ww(uninjected());
  const auto admissible = admissible_regions(rig, ww.config(), caps, 0.0, tol);
  bool some_forced = false;
  bool some_free = false;
  for (const auto& regions : admissible) {
    some_forced = some_forced || regions.size() == 1;
    some_free = some_free || regions.size() > 1;
  }
  ASSERT_TRUE(some_forced && some_free) << "the chunk is not mixed";
  const auto placed = rig.run(ww, caps, 0.0, tol);

  ASSERT_EQ(placed.size(), 12u);
  for (const dc::Decision& d : placed) {
    const auto& regions = admissible[static_cast<std::size_t>(d.job_id)];
    EXPECT_NE(std::find(regions.begin(), regions.end(), d.region),
              regions.end())
        << "job " << d.job_id << " placed late by the hard model";
  }
  expect_within_caps(placed, caps);
  const obs::Registry& reg = ww.registry();
  EXPECT_EQ(counter(reg, "milp_solves"), 1);
  EXPECT_EQ(counter(reg, "forced_chunks"), 0);
  EXPECT_EQ(counter(reg, "soft_fallbacks"), 0);
}

TEST(ForcedPrePass, InjectedFailureDiscardsTheForcedAnswer) {
  // Every attempt is failed by injection, so the forced answer is dropped
  // after the hard rung like a solve's, and the ladder runs on to the
  // fallback: the same placements as the fallback reference.
  const DirectRig rig(12);
  const std::vector<int> caps = {5, 5, 12, 5, 5};
  const double tol = 0.01;
  WaterWiseConfig cfg;
  cfg.solve_failure_rate = 1.0;
  cfg.fault_seed = 1004;
  WaterWiseScheduler ww(cfg);
  for (const auto& regions : admissible_regions(rig, ww.config(), caps, 0.0,
                                                tol))
    ASSERT_EQ(regions.size(), 1u);
  const std::vector<int> ref =
      reference_fallback(rig, ww.config(), caps, 0.0, tol, true);
  const auto placed = rig.run(ww, caps, 0.0, tol);

  ASSERT_EQ(placed.size(), 12u);
  for (const dc::Decision& d : placed)
    EXPECT_EQ(d.region, ref[static_cast<std::size_t>(d.job_id)])
        << "job " << d.job_id;
  const obs::Registry& reg = ww.registry();
  EXPECT_EQ(counter(reg, "forced_chunks"), 0);
  EXPECT_EQ(counter(reg, "fault_events"), 3);
  EXPECT_EQ(counter(reg, "soft_fallbacks"), 1);
  EXPECT_EQ(counter(reg, "solve_retries"), 1);
  EXPECT_EQ(counter(reg, "milp_solves"), 2) << "soft model and retry";
  EXPECT_EQ(counter(reg, "fallback_placements"), 12);
}

TEST(RetryLadder, InjectedFailuresByteIdenticalAcrossThreadCounts) {
  const DirectRig rig(60);
  const std::vector<int> caps = {12, 12, 12, 12, 12};
  auto run = [&](int threads) {
    WaterWiseConfig cfg;
    cfg.max_jobs_per_solve = 7;  // many chunks per window
    cfg.solver_threads = threads;
    cfg.solve_failure_rate = 0.35;
    cfg.fault_seed = 1002;
    WaterWiseScheduler ww(cfg);
    auto decisions = rig.run(ww, caps);
    return std::make_pair(std::move(decisions), ww.registry());
  };

  const auto [ref, ref_reg] = run(1);
  EXPECT_GT(counter(ref_reg, "fault_events"), 0)
      << "rate 0.35 injected nothing";
  for (const int threads : {2, 4}) {
    const auto [got, got_reg] = run(threads);
    ASSERT_EQ(got.size(), ref.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].job_id, ref[i].job_id) << "threads=" << threads;
      EXPECT_EQ(got[i].region, ref[i].region) << "threads=" << threads;
      EXPECT_EQ(got[i].start_time, ref[i].start_time) << "threads=" << threads;
      EXPECT_EQ(got[i].power_scale, ref[i].power_scale)
          << "threads=" << threads;
    }
    for (const char* name : {"fault_events", "solve_retries",
                             "fallback_placements", "deferred_jobs",
                             "milp_solves"})
      EXPECT_EQ(counter(got_reg, name), counter(ref_reg, name))
          << name << " threads=" << threads;
  }
}

TEST(TotalOutage, DefersExplicitlyAndPlacesEverythingAfterTheBlackout) {
  // Every region out for the first hour.  Jobs submitted at t=0 must all be
  // explicitly deferred (counted, not dropped) and then start after the
  // blackout lifts — placed-or-deferred must reconcile with the trace.
  env::FaultSchedule faults(5);
  for (int r = 0; r < 5; ++r) faults.add_outage(r, 0.0, 3600.0);

  env::Environment world = env::Environment::builtin(small_env());
  world.attach_faults(&faults, env::FaultView::World);
  const footprint::FootprintModel world_fp(world);

  const auto jobs = burst_trace(25, 0.0);
  dc::SimConfig sim_cfg;
  sim_cfg.tol = 0.5;
  sim_cfg.record_jobs = true;
  dc::Simulator sim(world, world_fp, sim_cfg);
  sim.set_fault_injection(&faults);

  WaterWiseScheduler ww;
  const dc::CampaignResult res = sim.run(jobs, ww);

  EXPECT_EQ(res.num_jobs, 25);
  ASSERT_EQ(res.jobs.size(), 25u);
  std::set<std::uint64_t> ids;
  for (const dc::JobOutcome& j : res.jobs) {
    ids.insert(j.job_id);
    EXPECT_GE(j.start_time, 3600.0)
        << "job " << j.job_id << " started inside the blackout";
  }
  EXPECT_EQ(ids.size(), 25u) << "a job was dropped or duplicated";
  EXPECT_GT(counter(ww.registry(), "deferred_jobs"), 0)
      << "blackout windows produced no explicit deferrals";
  // Note: degraded_windows stays 0 here by design — the outage starts at
  // t=0, so the state machine never observes healthy capacity to compare
  // against (max_capacity_seen is 0 throughout the blackout).  Transition
  // coverage lives in DegradedMode.StateMachineDegradesThenRecovers.
  EXPECT_EQ(counter(ww.registry(), "degraded_windows"), 0);
}

TEST(ChunkFailFast, ExceptionInPooledSolveSurfacesWithChunkContext) {
  // A throwing chunk solve must abort the window with the failing chunk's
  // index and the window time in the message — identically at every thread
  // count (no hang, no silent partial commit).
  for (const int threads : {1, 2, 4}) {
    const DirectRig rig(12);
    WaterWiseConfig cfg;
    cfg.max_jobs_per_solve = 4;  // 12 jobs -> 3 chunks
    cfg.solver_threads = threads;
    cfg.chunk_solve_hook = [](int index) {
      if (index == 1) throw std::runtime_error("injected hook failure");
    };
    WaterWiseScheduler ww(cfg);
    try {
      (void)rig.run(ww, {5, 5, 10, 5, 5});
      FAIL() << "chunk exception swallowed at threads=" << threads;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("chunk 1"), std::string::npos) << msg;
      EXPECT_NE(msg.find("injected hook failure"), std::string::npos) << msg;
      EXPECT_NE(msg.find("t="), std::string::npos) << msg;
    }
  }
}

TEST(DegradedMode, StateMachineDegradesThenRecoversWithCapRails) {
  // Drive the per-region state machine directly with 60-second windows:
  // two blackout windows degrade every region, the first clean windows keep
  // the 25% degraded rail on, recovery ramps at 50%, and a fully recovered
  // scheduler places an entire burst again.  Injected solve failures are
  // pinned off: each one is a fault event, and the counts below are exact.
  const DirectRig rig(40);
  WaterWiseScheduler ww(uninjected());
  const std::vector<dc::PendingJob> empty;
  const std::vector<int> up(5, 10);
  const std::vector<int> down(5, 0);

  auto observe = [&](const std::vector<int>& caps, double now) {
    const FixedCapacity view(caps);
    dc::ScheduleContext ctx;
    ctx.now = now;
    ctx.tol = 0.5;
    ctx.env = &rig.env;
    ctx.footprint = &rig.fp;
    ctx.capacity = &view;
    return ww.schedule(empty, ctx);
  };

  (void)observe(up, 0.0);  // learn max capacity; all Normal
  EXPECT_EQ(counter(ww.registry(), "fault_events"), 0);
  (void)observe(down, 60.0);  // outage everywhere -> Degraded
  EXPECT_EQ(counter(ww.registry(), "fault_events"), 5);
  EXPECT_EQ(counter(ww.registry(), "degraded_windows"), 5);
  (void)observe(down, 120.0);
  EXPECT_EQ(counter(ww.registry(), "fault_events"), 10);

  // First clean window: still Degraded, so the 25% rail caps each region at
  // floor(0.25 * 10) = 2 -> at most 10 of the 40 burst jobs place, and the
  // remaining 30+ are explicit deferrals.
  const long deferred_before = counter(ww.registry(), "deferred_jobs");
  const auto degraded_placements = rig.run(ww, up, 180.0);
  EXPECT_LE(degraded_placements.size(), 10u);
  EXPECT_GE(counter(ww.registry(), "deferred_jobs") - deferred_before, 30L);

  (void)observe(up, 240.0);
  const long degraded_windows_peak =
      counter(ww.registry(), "degraded_windows");
  (void)observe(up, 300.0);  // third clean window -> Recovery
  (void)observe(up, 360.0);
  (void)observe(up, 420.0);
  (void)observe(up, 480.0);  // recovery_windows elapsed -> Normal
  EXPECT_EQ(counter(ww.registry(), "degraded_windows"), degraded_windows_peak)
      << "degraded-window counter kept growing after recovery began";

  // Fully recovered: the same burst now places in full under the same caps.
  const auto recovered = rig.run(ww, up, 540.0);
  EXPECT_EQ(recovered.size(), 40u);
  EXPECT_EQ(counter(ww.registry(), "fault_events"), 10)
      << "recovery windows raised spurious fault events";
}

}  // namespace
}  // namespace ww::core
