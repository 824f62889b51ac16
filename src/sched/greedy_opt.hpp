// Carbon-Greedy-Opt and Water-Greedy-Opt oracles (Sec. 3 / Sec. 5).
//
// Infeasible-in-practice reference schedulers: they know each job's true
// execution time and the *future* carbon/water intensity of every region,
// and brute-force, per job, every (region, start-time) pair inside the
// delay-tolerance window, reserving the single-metric cheapest slot that
// fits capacity.  They are greedy over jobs (no knowledge of future
// arrivals), exactly as the paper qualifies: "not truly optimal since they
// make the scheduling decision without knowing the characteristics of
// future job arrivals."
//
// This module holds only these oracles.  WaterWise's own greedy fallback is
// part of its retry ladder in core/waterwise.cpp.
#pragma once

#include "dc/scheduler.hpp"

namespace ww::sched {

enum class GreedyMetric { Carbon, Water };

struct GreedyOptConfig {
  int start_candidates = 9;  ///< Start times sampled across the slack window.
};

class GreedyOptScheduler final : public dc::Scheduler {
 public:
  explicit GreedyOptScheduler(GreedyMetric metric, GreedyOptConfig config = {})
      : metric_(metric), config_(config) {}

  [[nodiscard]] std::string name() const override {
    return metric_ == GreedyMetric::Carbon ? "Carbon-Greedy-Opt"
                                           : "Water-Greedy-Opt";
  }

  [[nodiscard]] std::vector<dc::Decision> schedule(
      const std::vector<dc::PendingJob>& batch,
      const dc::ScheduleContext& ctx) override;

 private:
  GreedyMetric metric_;
  GreedyOptConfig config_;
};

}  // namespace ww::sched
