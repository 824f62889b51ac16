// The benchmark's workloads and the world each one runs in.
//
// A workload is a fixed program configuration plus a trace recipe; the
// seed given on the command line picks the trace.  Seeds must not change
// the load, or the spread between seeds would hide any change to the
// program, so each trace
//   * holds the workload's fixed job count over its fixed span (the
//     generated arrivals are stretched to fit), and
//   * keeps the Borg/Alibaba diurnal envelope but not the MMPP burst states:
//     a burst or calm state lasts 15-90 minutes on average, so one
//     simulated day holds only a handful of bursts, and where they land
//     decides the batch-size tail, the B&B work and the backlog.
// The seed therefore varies the Poisson arrivals and the job mix.  The
// fault workload's storm and injected solve failures are fixed.  Every
// WaterWiseConfig / SimConfig / fault field a workload depends on is set
// here explicitly, so a changed library default cannot silently change what
// the benchmark measures.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/waterwise.hpp"
#include "dc/simulator.hpp"
#include "env/environment.hpp"
#include "env/faults.hpp"
#include "footprint/footprint.hpp"
#include "trace/job.hpp"

namespace perfbench {

class SpanLog;

struct Workload {
  std::string name;  ///< Why each workload exists: BENCHMARK.json, README.md.
  bool alibaba = false;          ///< Alibaba-rate trace instead of Borg.
  std::size_t jobs = 0;          ///< Jobs in the trace.
  double days = 1.0;             ///< Span of their submit times.
  double rate_multiplier = 1.0;  ///< Arrival-rate scale on the base trace.
  double capacity_scale = 1.0;   ///< Servers per region, scaled.
  double min_batch_interval_s = 2.0;
  double batch_window_s = 60.0;
  bool fault_storm = false;      ///< Outage/flap/bias/shock schedule.
  double solve_failure_rate = 0.0;
  /// Tail percentile reported as decision_ms_tail; fixed per workload and
  /// checked against the tail rule (bench_stats.hpp) on every run.
  double tail_q = 0.99;
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const Workload& find_workload(const std::string& name);

/// Scheduler configuration of every workload: serial (one solver thread),
/// untraced, with each field pinned.
[[nodiscard]] ww::core::WaterWiseConfig scheduler_config(const Workload& w);

/// Set-up cost of one World, split by layer.
struct SetupTimes {
  double generate_s = 0.0;  ///< trace::generate_trace.
  double env_s = 0.0;       ///< Environment, FootprintModel, FaultSchedule.
};

/// Trace, environment, footprint model and (for the fault workload) the
/// fault schedule with its controller-view environment.  Immutable once
/// built; the simulator and scheduler borrow from it.
class World {
 public:
  /// Builds the world and records its set-up time; when `spans` is given,
  /// the two set-up steps are also logged as spans.
  World(const Workload& w, std::uint64_t seed, SetupTimes& times,
        SpanLog* spans = nullptr);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] const std::vector<ww::trace::Job>& jobs() const noexcept {
    return jobs_;
  }
  [[nodiscard]] const ww::dc::SimConfig& sim_config() const noexcept {
    return sim_;
  }
  /// One full Simulator::run of the trace under `scheduler`.
  [[nodiscard]] ww::dc::CampaignResult run(
      ww::dc::Scheduler& scheduler) const;

 private:
  std::vector<ww::trace::Job> jobs_;
  ww::dc::SimConfig sim_;
  std::unique_ptr<ww::env::FaultSchedule> faults_;
  std::unique_ptr<ww::env::Environment> env_;
  std::unique_ptr<ww::footprint::FootprintModel> footprint_;
  std::unique_ptr<ww::env::Environment> observed_env_;
  std::unique_ptr<ww::footprint::FootprintModel> observed_footprint_;
};

}  // namespace perfbench
