// The benchmark's own tests: exact quantiles and the tail rule against
// sorted samples, the span-profile parser, the schedule check, and the
// transparency of the forwarding wrappers (wrapped and unwrapped runs must
// give identical aggregates and registry counters).
//
// Exits nonzero on the first failed expectation.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "core/waterwise.hpp"
#include "obs/trace.hpp"
#include "probe.hpp"
#include "profile.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::cerr << __FILE__ << ":" << __LINE__ << ": EXPECT(" #cond     \
                << ") failed\n";                                        \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

using namespace perfbench;

/// Reference nearest rank: the smallest sample x with #(samples <= x)
/// >= q * n, found by a linear scan.
double brute_force_rank(const std::vector<double>& sorted, double q) {
  const double need = q * static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i)
    if (static_cast<double>(i + 1) >= need - 1e-9) return sorted[i];
  return sorted.back();
}

void test_quantiles() {
  std::vector<double> s;
  for (int i = 1; i <= 1000; ++i) s.push_back(i);
  EXPECT(nearest_rank(s, 0.5) == 500.0);
  EXPECT(nearest_rank(s, 0.99) == 990.0);
  EXPECT(nearest_rank(s, 0.999) == 999.0);
  EXPECT(nearest_rank(s, 1.0) == 1000.0);
  EXPECT(nearest_rank({7.0}, 0.5) == 7.0);

  // Random samples of every size up to 3000 against the linear-scan rank.
  std::mt19937_64 rng(12345);
  std::lognormal_distribution<double> dist(0.0, 1.5);
  for (std::size_t n = 1; n <= 3000; n += 37) {
    std::vector<double> v(n);
    for (double& x : v) x = dist(rng);
    std::sort(v.begin(), v.end());
    for (const double q : {0.5, 0.9, 0.99, 0.999})
      EXPECT(nearest_rank(v, q) == brute_force_rank(v, q));
  }

  EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_tail_rule() {
  // Samples beyond a nearest rank, counted directly on sorted samples.
  for (const std::size_t n : {1u, 9u, 99u, 100u, 1000u, 1440u, 9999u, 10000u,
                              40500u}) {
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      std::vector<double> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
      const double x = nearest_rank(v, q);
      std::size_t beyond = 0;
      for (const double s : v) beyond += s > x ? 1 : 0;
      EXPECT(samples_beyond(n, q) == beyond);
    }
  }
  EXPECT(tail_quantile(40500) == 0.999);  // alibaba_day scale
  EXPECT(tail_quantile(10000) == 0.999);  // exactly 10 beyond p99.9
  EXPECT(tail_quantile(9999) == 0.99);    // 9 beyond p99.9
  EXPECT(tail_quantile(1440) == 0.99);    // fleet_batch scale
  EXPECT(tail_quantile(1000) == 0.99);    // exactly 10 beyond p99
  EXPECT(tail_quantile(999) == 0.9);
  EXPECT(tail_quantile(100) == 0.9);
  EXPECT(tail_quantile(99) == 0.5);
}

void test_profile_parser() {
  const std::string json =
      "{\"traceEvents\": [\n"
      "{\"name\": \"outer\", \"ph\": \"B\", \"ts\": 0, \"pid\": 1, \"tid\": 1},\n"
      "{\"name\": \"inner\", \"ph\": \"B\", \"ts\": 10, \"pid\": 1, \"tid\": 1},\n"
      "{\"name\": \"other\", \"ph\": \"B\", \"ts\": 12, \"pid\": 1, \"tid\": 2},\n"
      "{\"name\": \"inner\", \"ph\": \"E\", \"ts\": 40, \"pid\": 1, \"tid\": 1, "
      "\"args\": {\"n\": 3}},\n"
      "{\"name\": \"inner\", \"ph\": \"B\", \"ts\": 50, \"pid\": 1, \"tid\": 1},\n"
      "{\"name\": \"inner\", \"ph\": \"E\", \"ts\": 60, \"pid\": 1, \"tid\": 1},\n"
      "{\"name\": \"other\", \"ph\": \"E\", \"ts\": 20, \"pid\": 1, \"tid\": 2},\n"
      "{\"name\": \"outer\", \"ph\": \"E\", \"ts\": 100, \"pid\": 1, \"tid\": 1}\n"
      "], \"displayTimeUnit\": \"ms\"}\n";
  const Profile p = profile_chrome_trace(json);
  const auto near = [](double a, double b) { return std::abs(a - b) < 1e-12; };
  EXPECT(totals(p, "outer").count == 1);
  EXPECT(near(totals(p, "outer").inclusive_s, 100e-6));
  EXPECT(near(totals(p, "outer").self_s, 60e-6));
  EXPECT(totals(p, "inner").count == 2);
  EXPECT(near(totals(p, "inner").inclusive_s, 40e-6));
  EXPECT(near(totals(p, "inner").self_s, 40e-6));
  EXPECT(near(totals(p, "other").self_s, 8e-6));
  EXPECT(totals(p, "absent").count == 0);

  bool threw = false;
  try {
    (void)profile_chrome_trace(
        "{\"name\": \"a\", \"ph\": \"B\", \"ts\": 0, \"pid\": 1, \"tid\": 1}\n");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT(threw);
}

/// A small copy of a benchmark workload, fast enough for a unit test.
Workload small(const std::string& name, double days) {
  Workload w = find_workload(name);
  w.jobs = static_cast<std::size_t>(static_cast<double>(w.jobs) * days / w.days);
  w.days = days;
  return w;
}

/// Aggregates and counters that must not depend on the wrapper.
std::string fingerprint(const ww::dc::CampaignResult& r,
                        const ww::core::WaterWiseScheduler& s) {
  std::ostringstream out;
  out.precision(17);
  out << r.num_jobs << " " << r.total_carbon_g << " " << r.total_water_l
      << " " << r.violations << " " << r.service_norm.mean() << " "
      << r.makespan_seconds << " " << r.total_cost_usd << " |";
  for (const long n : r.jobs_per_region) out << " " << n;
  out << " |";
  for (const char* name :
       {"sched.milp_solves", "sched.chunks_planned", "sched.simplex_iterations",
        "sched.nodes_explored", "sched.presolve_cols_removed",
        "sched.deferred_jobs", "sched.solve_retries",
        "sched.fallback_placements", "sched.fault_events", "sched.windows"}) {
    const std::uint64_t* v = s.registry().find_counter(name);
    out << " " << (v != nullptr ? std::to_string(*v) : "missing");
  }
  return out.str();
}

void test_wrappers_are_transparent() {
  for (const Workload& w : {small("alibaba_day", 0.03),
                            small("fleet_batch", 0.03),
                            small("overload_storm", 0.05)}) {
    SetupTimes times;
    const World world(w, 3, times);

    ww::core::WaterWiseScheduler bare(scheduler_config(w));
    const ww::dc::CampaignResult direct = world.run(bare);
    const std::string expect = fingerprint(direct, bare);
    EXPECT(direct.num_jobs == static_cast<long>(world.jobs().size()));

    ww::core::WaterWiseScheduler plain_inner(scheduler_config(w));
    Probe plain(plain_inner, world.jobs());
    const ww::dc::CampaignResult wrapped = world.run(plain);
    EXPECT(fingerprint(wrapped, plain_inner) == expect);
    const ScheduleCheck plain_check = plain.finish(wrapped);
    EXPECT(plain_check.ok());
    EXPECT(plain_check.completed == plain_check.submitted);

    // Traced: span log, counting capacity view, program spans switched on.
    SpanLog spans;
    ww::core::WaterWiseScheduler traced_inner(scheduler_config(w));
    Probe traced(traced_inner, world.jobs(), &spans);
    ww::obs::Trace::instance().clear();
    ww::obs::Trace::instance().set_enabled(true);
    const ww::dc::CampaignResult traced_result = world.run(traced);
    ww::obs::Trace::instance().set_enabled(false);
    EXPECT(fingerprint(traced_result, traced_inner) == expect);
    EXPECT(traced.finish(traced_result).ok());
    EXPECT(traced.digest() == plain.digest());
    EXPECT(traced.capacity_queries() > 0);
    EXPECT(!spans.spans().empty());
    const Profile p =
        profile_chrome_trace(ww::obs::Trace::instance().to_chrome_json());
    ww::obs::Trace::instance().clear();
    EXPECT(totals(p, "sched.window").count ==
           static_cast<std::int64_t>(traced.latencies_s().size()));
    if (failures != 0) std::cerr << "  in workload " << w.name << "\n";
  }
}

/// Returns the inner scheduler's decisions plus one defect.
class Faulty final : public ww::dc::Scheduler {
 public:
  enum class Defect { UnknownJob, Duplicate };
  Faulty(ww::dc::Scheduler& inner, Defect defect)
      : inner_(inner), defect_(defect) {}
  [[nodiscard]] std::string name() const override { return "faulty"; }
  [[nodiscard]] std::vector<ww::dc::Decision> schedule(
      const std::vector<ww::dc::PendingJob>& batch,
      const ww::dc::ScheduleContext& ctx) override {
    std::vector<ww::dc::Decision> d = inner_.schedule(batch, ctx);
    if (!d.empty()) {
      ww::dc::Decision extra = d.front();
      if (defect_ == Defect::UnknownJob) extra.job_id = 1u << 30;
      d.push_back(extra);
    }
    return d;
  }
  void on_job_finished(const ww::trace::Job& job) override {
    inner_.on_job_finished(job);
  }

 private:
  ww::dc::Scheduler& inner_;
  Defect defect_;
};

void test_schedule_check_catches_defects() {
  const Workload w = small("fleet_batch", 0.02);
  SetupTimes times;
  const World world(w, 5, times);
  for (const auto defect : {Faulty::Defect::UnknownJob, Faulty::Defect::Duplicate}) {
    ww::core::WaterWiseScheduler inner(scheduler_config(w));
    Faulty faulty(inner, defect);
    Probe probe(faulty, world.jobs());
    const ww::dc::CampaignResult r = world.run(probe);
    EXPECT(!probe.finish(r).ok());
  }
  // A result that disagrees with the observed placements fails the check.
  ww::core::WaterWiseScheduler inner(scheduler_config(w));
  Probe probe(inner, world.jobs());
  ww::dc::CampaignResult r = world.run(probe);
  r.jobs_per_region[0] += 1;
  EXPECT(!probe.finish(r).ok());
}

}  // namespace

int main() {
  test_quantiles();
  test_tail_rule();
  test_profile_parser();
  test_wrappers_are_transparent();
  test_schedule_check_catches_defects();
  if (failures != 0) {
    std::cerr << failures << " expectation(s) failed\n";
    return 1;
  }
  std::cout << "perfbench selftest: all expectations hold\n";
  return 0;
}
