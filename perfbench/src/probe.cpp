#include "probe.hpp"

#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double SpanLog::total_seconds(const std::string& name) const {
  std::int64_t ns = 0;
  for (const SpanRecord& s : spans_)
    if (name == s.name) ns += s.end_ns - s.begin_ns;
  return static_cast<double>(ns) * 1e-9;
}

Probe::Probe(ww::dc::Scheduler& inner, const std::vector<ww::trace::Job>& jobs,
             SpanLog* spans)
    : inner_(inner), spans_(spans) {
  for (std::size_t i = 0; i < jobs.size(); ++i)
    if (jobs[i].id != i)
      throw std::invalid_argument("Probe: job ids must be 0..n-1 in order");
  seen_window_.assign(jobs.size(), -1);
  decided_window_.assign(jobs.size(), -1);
  placed_.assign(jobs.size(), 0);
  finished_.assign(jobs.size(), 0);
}

void Probe::mix(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    digest_ ^= (v >> (8 * i)) & 0xffU;
    digest_ *= 0x100000001b3ULL;
  }
}

void Probe::mix_double(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  mix(bits);
}

void Probe::settle_previous_window() {
  // Jobs of the previous batch that are not pending any more were placed
  // in that window.
  for (const std::uint64_t id : previous_batch_) {
    if (seen_window_[id] != window_) continue;  // still pending
    if (placed_[id] < 255) ++placed_[id];
    if (decided_window_[id] != window_) ++undecided_placements_;
  }
  previous_batch_.clear();
}

std::vector<ww::dc::Decision> Probe::schedule(
    const std::vector<ww::dc::PendingJob>& batch,
    const ww::dc::ScheduleContext& ctx) {
  const auto next = static_cast<std::int32_t>(window_ + 1);
  for (const ww::dc::PendingJob& p : batch) {
    const std::uint64_t id = p.job->id;
    const std::int32_t seen = seen_window_.at(id);
    if (seen >= 0 && seen != window_) ++reappeared_;
    seen_window_[id] = next;
  }
  settle_previous_window();
  window_ = next;
  for (const ww::dc::PendingJob& p : batch) previous_batch_.push_back(p.job->id);
  pending_visits_ += static_cast<std::int64_t>(batch.size());
  batch_size_.push_back(static_cast<double>(batch.size()));

  std::vector<ww::dc::Decision> decisions;
  const std::int64_t t0 = now_ns();
  if (spans_ != nullptr) {
    capacity_view_.attach(ctx.capacity);
    ww::dc::ScheduleContext counted = ctx;
    counted.capacity = &capacity_view_;
    decisions = inner_.schedule(batch, counted);
  } else {
    decisions = inner_.schedule(batch, ctx);
  }
  const std::int64_t t1 = now_ns();
  latency_s_.push_back(static_cast<double>(t1 - t0) * 1e-9);
  if (spans_ != nullptr) spans_->add("schedule", t0, t1);

  mix_double(ctx.now);
  mix(batch.size());
  for (const ww::dc::Decision& d : decisions) {
    mix(d.job_id);
    mix(static_cast<std::uint64_t>(d.region));
    mix_double(d.start_time);
    mix_double(d.power_scale);
    if (d.job_id >= seen_window_.size() || seen_window_[d.job_id] != window_) {
      ++bad_decisions_;
      continue;
    }
    if (decided_window_[d.job_id] == window_) ++duplicate_decisions_;
    decided_window_[d.job_id] = static_cast<std::int32_t>(window_);
  }
  decisions_returned_ += static_cast<std::int64_t>(decisions.size());
  return decisions;
}

void Probe::on_job_finished(const ww::trace::Job& job) {
  if (spans_ != nullptr) {
    const std::int64_t t0 = now_ns();
    inner_.on_job_finished(job);
    spans_->add("on_job_finished", t0, now_ns());
  } else {
    inner_.on_job_finished(job);
  }
  std::uint8_t& n = finished_.at(job.id);
  if (n < 255) ++n;
}

ScheduleCheck Probe::finish(const ww::dc::CampaignResult& result) {
  // Simulator::run returns only once nothing is pending, so every job of
  // the last batch left it there.
  settle_previous_window();

  ScheduleCheck check;
  check.submitted = static_cast<std::int64_t>(placed_.size());
  std::int64_t unplaced = 0;
  std::int64_t multiply_placed = 0;
  std::int64_t finish_mismatch = 0;
  for (std::size_t i = 0; i < placed_.size(); ++i) {
    check.placed += placed_[i];
    if (placed_[i] == 0) ++unplaced;
    if (placed_[i] > 1) ++multiply_placed;
    if (finished_[i] != placed_[i]) ++finish_mismatch;
    if (placed_[i] == 1 && finished_[i] == 1) ++check.completed;
  }
  auto& v = check.violations;
  const auto note = [&v](std::int64_t n, const char* what) {
    if (n != 0) v.push_back(std::to_string(n) + " " + what);
  };
  note(unplaced, "job(s) never placed");
  note(multiply_placed, "job(s) placed more than once");
  note(finish_mismatch, "job(s) finished a different number of times than placed");
  note(reappeared_, "job(s) pending again after being placed");
  note(undecided_placements_, "placement(s) without a decision");
  note(bad_decisions_, "decision(s) naming a job not in the batch");
  note(duplicate_decisions_, "duplicate decision id(s) within a window");
  const long per_region = std::accumulate(result.jobs_per_region.begin(),
                                          result.jobs_per_region.end(), 0L);
  if (per_region != result.num_jobs || result.num_jobs != check.placed)
    v.push_back("sum of jobs_per_region " + std::to_string(per_region) +
                ", simulator num_jobs " + std::to_string(result.num_jobs) +
                " and observed placements " + std::to_string(check.placed) +
                " disagree");
  if (!(std::isfinite(result.total_carbon_g) && result.total_carbon_g > 0.0))
    v.push_back("carbon footprint is not finite and positive");
  if (!(std::isfinite(result.total_water_l) && result.total_water_l > 0.0))
    v.push_back("water footprint is not finite and positive");
  return check;
}

}  // namespace perfbench
