// Measurement from outside the program: an in-memory span log, and
// forwarding dc::Scheduler / dc::CapacityView wrappers that time and count
// the calls crossing the simulator -> scheduler boundary and check the
// schedule the simulator applied.
//
// The wrappers only observe.  Every call is forwarded unchanged, so a
// wrapped run produces the same decisions and aggregates as an unwrapped
// one (selftest.cpp checks this).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dc/metrics.hpp"
#include "dc/scheduler.hpp"
#include "trace/job.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans recorded at the benchmark's own call boundaries, kept in memory
/// and written out once the run ends.  `name` must be a string literal.
struct SpanRecord {
  const char* name = nullptr;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  void add(const char* name, std::int64_t begin_ns, std::int64_t end_ns) {
    spans_.push_back(SpanRecord{name, begin_ns, end_ns});
  }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  /// Summed duration of every span called `name`, in seconds.
  [[nodiscard]] double total_seconds(const std::string& name) const;

 private:
  std::vector<SpanRecord> spans_;
};

/// Forwards every query to the simulator's view and counts them.
class CountingCapacityView final : public ww::dc::CapacityView {
 public:
  void attach(const ww::dc::CapacityView* inner) noexcept { inner_ = inner; }
  [[nodiscard]] std::int64_t queries() const noexcept {
    return queries_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] int num_regions() const override {
    bump();
    return inner_->num_regions();
  }
  [[nodiscard]] int capacity(int region) const override {
    bump();
    return inner_->capacity(region);
  }
  [[nodiscard]] int free_at(int region, double t) const override {
    bump();
    return inner_->free_at(region, t);
  }
  [[nodiscard]] int max_occupancy(int region, double start,
                                  double end) const override {
    bump();
    return inner_->max_occupancy(region, start, end);
  }

 private:
  void bump() const noexcept {
    queries_.fetch_add(1, std::memory_order_relaxed);
  }
  const ww::dc::CapacityView* inner_ = nullptr;
  // Atomic so the count stays exact even if a scheduler queries from its
  // chunk fan-out; the benchmark runs serial, so it is never contended.
  mutable std::atomic<std::int64_t> queries_{0};
};

/// Outcome of the schedule check, filled by Probe::finish().
struct ScheduleCheck {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;  ///< Placed exactly once and finished once.
  std::int64_t placed = 0;     ///< Jobs that left the pending set.
  std::vector<std::string> violations;  ///< Empty when the schedule is sound.
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

/// Forwarding scheduler.  Per window it times `schedule()`, records the
/// batch size, folds the returned decisions into a digest, and tracks which
/// pending jobs the simulator placed (a job placed at window k is in batch k
/// and absent from batch k+1; every job still pending at the last window is
/// placed there, since Simulator::run returns only with no job pending).
/// With a span log it also logs `schedule` / `on_job_finished` spans and
/// routes the scheduler's capacity queries through a CountingCapacityView.
class Probe final : public ww::dc::Scheduler {
 public:
  /// `jobs` is the submitted trace (ids must be 0..n-1); `spans` switches
  /// on the traced mode.
  Probe(ww::dc::Scheduler& inner, const std::vector<ww::trace::Job>& jobs,
        SpanLog* spans = nullptr);

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::vector<ww::dc::Decision> schedule(
      const std::vector<ww::dc::PendingJob>& batch,
      const ww::dc::ScheduleContext& ctx) override;
  void on_job_finished(const ww::trace::Job& job) override;

  /// Settles the last window and checks the run against `result`: every
  /// job placed and finished exactly once, sum of jobs_per_region equal to
  /// the placed count, decision ids unique, footprints finite and positive.
  [[nodiscard]] ScheduleCheck finish(const ww::dc::CampaignResult& result);

  /// Exact per-window `schedule()` wall time, seconds, in window order.
  [[nodiscard]] const std::vector<double>& latencies_s() const noexcept {
    return latency_s_;
  }
  /// Pending jobs offered per window, in window order.
  [[nodiscard]] const std::vector<double>& batch_sizes() const noexcept {
    return batch_size_;
  }
  [[nodiscard]] std::int64_t decisions_returned() const noexcept {
    return decisions_returned_;
  }
  [[nodiscard]] std::int64_t pending_visits() const noexcept {
    return pending_visits_;
  }
  [[nodiscard]] std::int64_t capacity_queries() const noexcept {
    return capacity_view_.queries();
  }
  /// FNV-1a digest of the decision stream: per window its time and batch
  /// size, then every returned decision in order.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  void settle_previous_window();
  void mix(std::uint64_t v) noexcept;
  void mix_double(double v) noexcept;

  ww::dc::Scheduler& inner_;
  SpanLog* spans_;
  CountingCapacityView capacity_view_;

  std::int64_t window_ = -1;
  std::vector<std::int32_t> seen_window_;     ///< Last batch holding the job.
  std::vector<std::int32_t> decided_window_;  ///< Last window deciding it.
  std::vector<std::uint8_t> placed_;          ///< Times it left pending.
  std::vector<std::uint8_t> finished_;        ///< on_job_finished calls.
  std::vector<std::uint64_t> previous_batch_;
  std::int64_t bad_decisions_ = 0;       ///< Named a job not in the batch.
  std::int64_t duplicate_decisions_ = 0; ///< Same job twice in one window.
  std::int64_t undecided_placements_ = 0;
  std::int64_t reappeared_ = 0;          ///< Pending again after leaving.

  std::vector<double> latency_s_;
  std::vector<double> batch_size_;
  std::int64_t decisions_returned_ = 0;
  std::int64_t pending_visits_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
