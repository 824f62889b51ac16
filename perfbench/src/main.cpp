// perfbench: the campaign benchmark of the WaterWise simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--digests <file>] [--trace-dir <dir>]
//
// Each repetition builds the workload's world from the seed (trace,
// environment, fault schedule), constructs a serial WaterWiseScheduler and
// drives one dc::Simulator::run through the Probe wrapper, which times every
// window and checks the applied schedule.  Repetitions continue until
// `--seconds` have passed (at least kMinReps); timings are the medians over
// repetitions, outcomes must repeat exactly.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
// repetitions with traced ones (benchmark spans plus the program's obs::Trace
// spans) and prints the per-layer metrics, the layer split and the tracing
// overhead.  The last stdout line is the JSON result; the exit code is
// nonzero when the schedule check or the repetition check fails.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_stats.hpp"
#include "core/waterwise.hpp"
#include "milp/solution.hpp"
#include "obs/trace.hpp"
#include "probe.hpp"
#include "profile.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;

/// Environment switches that change what the program does (thread count,
/// presolve, refactorization cadence, injected faults, tracing, bench
/// scale).  The benchmark pins all of them through explicit configuration
/// and refuses to run when one is set.
constexpr const char* kPinnedSwitches[] = {
    "WW_SCHED_THREADS", "WW_PRESOLVE", "WW_REFACTOR_EVERY_PIVOT",
    "WW_FAULT_SOLVES",  "WW_TRACE",    "WW_BENCH_SCALE"};

/// Registry counters reported per layer: metric name -> registry name.
const std::vector<std::pair<std::string, std::string>>& registry_counters() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"core.chunks_planned", "sched.chunks_planned"},
      {"core.spill_resolves", "sched.spill_resolves"},
      {"core.soft_fallbacks", "sched.soft_fallbacks"},
      {"core.solve_retries", "sched.solve_retries"},
      {"core.fallback_placements", "sched.fallback_placements"},
      {"core.deferred_jobs", "sched.deferred_jobs"},
      {"core.fault_events", "sched.fault_events"},
      {"core.degraded_windows", "sched.degraded_windows"},
      {"core.seeded_incumbents", "sched.seeded_incumbents"},
      {"milp.presolve_cols_removed", "sched.presolve_cols_removed"},
      {"milp.presolve_rows_removed", "sched.presolve_rows_removed"},
      {"milp.simplex_iterations", "sched.simplex_iterations"},
      {"milp.nodes", "sched.nodes_explored"},
      {"milp.refactorizations", "sched.refactorizations"},
      {"milp.ft_updates", "sched.ft_updates"},
      {"milp.solves", "sched.milp_solves"},
  };
  return names;
}

[[noreturn]] void refuse(const std::string& why) {
  std::cerr << "perfbench: refusing to run: " << why << "\n";
  std::exit(2);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A percentile for display: 0.999 -> "p99.9".
std::string percentile(double q) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%.4g", q * 100.0);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Gauge value by name from the registry's JSON export (the registry has
/// no by-name gauge lookup).
double registry_gauge(const ww::obs::Registry& reg, const std::string& name) {
  const std::string json = reg.to_json();
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = json.find(key);
  if (at == std::string::npos)
    throw std::runtime_error("registry has no gauge '" + name + "'");
  return std::strtod(json.c_str() + at + key.size(), nullptr);
}

/// Starts a fresh peak-RSS measurement: returns freed heap to the kernel
/// and resets the kernel's high-water mark (where /proc allows it; else the
/// mark keeps the process-wide peak).
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set size since the last reset_peak_rss(), MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void print_host() {
  std::string cpu = "unknown";
  double mhz = 0.0;
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (cpu == "unknown" && line.rfind("model name", 0) == 0) cpu = value;
    if (mhz == 0.0 && line.rfind("cpu MHz", 0) == 0)
      mhz = std::strtod(value.c_str(), nullptr);
  }
  std::cout << "host: nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << " cpu=\""
            << cpu << "\" mhz=" << mhz << " compiler=\""
#if defined(__clang__)
            << "clang "
#elif defined(__GNUC__)
            << "gcc "
#endif
            << __VERSION__ << "\" build=" << PERFBENCH_BUILD_TYPE << "\n";
}

void check_build_and_environment() {
#ifndef NDEBUG
  refuse("assertions are enabled; build with CMAKE_BUILD_TYPE=Release");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  refuse("sanitizer build; timings would not describe the program");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  refuse("sanitizer build; timings would not describe the program");
#endif
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release")
    refuse(std::string("build type is ") + PERFBENCH_BUILD_TYPE +
           ", not Release");
  for (const char* name : kPinnedSwitches)
    if (std::getenv(name) != nullptr)
      refuse(std::string(name) +
             " is set; it changes the measured program (unset it)");
  if (ww::milp::refactor_every_pivot_forced())
    refuse("refactor-every-pivot ablation is active");
}

/// Everything one repetition produced.
struct Rep {
  bool traced = false;
  SetupTimes setup;
  double setup_s = 0.0;  ///< World set-up plus scheduler construction.
  double run_s = 0.0;    ///< Simulator::run wall time.
  double peak_rss_mb = 0.0;
  // Outcomes (must repeat exactly across repetitions).
  long num_jobs = 0;
  double carbon_g = 0.0;
  double water_l = 0.0;
  double violation_pct = 0.0;
  double service_norm = 0.0;
  std::uint64_t digest = 0;
  ScheduleCheck check;
  // Per-window samples, folded.
  std::size_t windows = 0;
  double latency_p50_s = 0.0;
  double latency_tail_s = 0.0;
  double batch_p50 = 0.0;
  double batch_tail = 0.0;
  std::int64_t decisions_returned = 0;
  std::int64_t pending_visits = 0;
  // Registry readings.
  std::map<std::string, double> counters;
  double milp_solve_s = 0.0;
  double milp_presolve_s = 0.0;
  // Traced repetitions only.
  std::int64_t capacity_queries = 0;
  double schedule_s = 0.0;
  double finish_s = 0.0;
  Profile profile;
  std::size_t dropped_events = 0;
  // The spans themselves; kept for the last traced repetition only.
  std::vector<SpanRecord> spans;
  std::string program_json;
  std::int64_t origin_ns = 0;

  [[nodiscard]] double jobs_per_s() const {
    return static_cast<double>(num_jobs) / run_s;
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string digests_path;
  std::string trace_dir;
};

Rep run_rep(const Workload& w, const Options& opt, bool traced) {
  reset_peak_rss();
  Rep rep;
  rep.traced = traced;
  SpanLog spans;
  SpanLog* log = traced ? &spans : nullptr;

  const std::int64_t s0 = now_ns();
  const World world(w, opt.seed, rep.setup, log);
  const std::int64_t c0 = now_ns();
  ww::core::WaterWiseScheduler scheduler(scheduler_config(w));
  const std::int64_t c1 = now_ns();
  rep.setup_s = static_cast<double>(c1 - s0) * 1e-9;
  if (log != nullptr) log->add("construct_scheduler", c0, c1);
  if (scheduler.effective_solver_threads() != 1)
    refuse("scheduler is not serial");

  Probe probe(scheduler, world.jobs(), log);
  auto& trace = ww::obs::Trace::instance();
  std::int64_t origin_ns = 0;
  std::optional<ww::obs::Span> anchor;
  if (traced) {
    trace.clear();
    trace.set_enabled(true);
    // A benchmark-side span opens the program trace, so its timestamps
    // share an origin with the benchmark's own spans.
    origin_ns = now_ns();
    anchor.emplace("perfbench.run");
  }
  const std::int64_t r0 = now_ns();
  const ww::dc::CampaignResult result = world.run(probe);
  const std::int64_t r1 = now_ns();
  anchor.reset();
  trace.set_enabled(false);
  rep.run_s = static_cast<double>(r1 - r0) * 1e-9;
  rep.peak_rss_mb = peak_rss_mb();

  rep.check = probe.finish(result);
  rep.num_jobs = result.num_jobs;
  rep.carbon_g = result.total_carbon_g;
  rep.water_l = result.total_water_l;
  rep.violation_pct = result.violation_pct();
  rep.service_norm = result.mean_service_norm();
  rep.digest = probe.digest();

  std::vector<double> lat = probe.latencies_s();
  std::sort(lat.begin(), lat.end());
  std::vector<double> batch = probe.batch_sizes();
  std::sort(batch.begin(), batch.end());
  rep.windows = lat.size();
  rep.latency_p50_s = nearest_rank(lat, 0.5);
  rep.latency_tail_s = nearest_rank(lat, w.tail_q);
  rep.batch_p50 = nearest_rank(batch, 0.5);
  rep.batch_tail = nearest_rank(batch, w.tail_q);
  rep.decisions_returned = probe.decisions_returned();
  rep.pending_visits = probe.pending_visits();

  const ww::obs::Registry& reg = scheduler.registry();
  for (const auto& [metric, name] : registry_counters()) {
    const std::uint64_t* v = reg.find_counter(name);
    if (v == nullptr)
      throw std::runtime_error("registry has no counter '" + name + "'");
    rep.counters[metric] = static_cast<double>(*v);
  }
  rep.milp_solve_s = registry_gauge(reg, "sched.solve_seconds");
  rep.milp_presolve_s = registry_gauge(reg, "sched.presolve_seconds");

  if (traced) {
    log->add("Simulator::run", r0, r1);
    rep.capacity_queries = probe.capacity_queries();
    rep.schedule_s = spans.total_seconds("schedule");
    rep.finish_s = spans.total_seconds("on_job_finished");
    rep.dropped_events = trace.dropped_events();
    rep.program_json = trace.to_chrome_json();
    trace.clear();
    rep.profile = profile_chrome_trace(rep.program_json);
    rep.spans = spans.spans();
    rep.origin_ns = origin_ns;
  }
  return rep;
}

/// Recorded decision-stream digest for (workload, seed), if any.
std::optional<std::uint64_t> recorded_digest(const Options& opt) {
  std::ifstream in(opt.digests_path);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::uint64_t seed = 0;
    std::string digest;
    if (!(fields >> workload >> seed >> digest)) continue;
    if (workload == opt.workload && seed == opt.seed)
      return std::strtoull(digest.c_str(), nullptr, 16);
  }
  return std::nullopt;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "\n";
  for (const Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-28s %18.6f %s", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << line << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name
              << "\": {\"value\": " << fmt(std::isfinite(m.value) ? m.value : 0.0)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

template <class F>
std::vector<double> collect(const std::vector<Rep>& reps, F&& f) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(f(r));
  return v;
}

int run(const Options& opt) {
  const Workload& w = find_workload(opt.workload);
  print_host();
  std::cout << "workload: " << w.name << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace << "\n";

  std::vector<Rep> reps;
  const std::int64_t start = now_ns();
  const auto elapsed = [start] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  // Traced mode alternates untraced and traced repetitions, so drift on a
  // shared host lands on both sides of the tracing-overhead comparison.
  const auto want_more = [&] {
    if (static_cast<int>(reps.size()) >= kMaxReps) return false;
    if (static_cast<int>(reps.size()) < (opt.trace ? 2 : kMinReps)) return true;
    return elapsed() < opt.seconds;
  };
  while (want_more()) {
    const bool traced = opt.trace && reps.size() % 2 == 1;
    if (traced)  // only the last traced repetition's spans are written out
      for (Rep& r : reps) {
        r.spans.clear();
        r.program_json.clear();
      }
    reps.push_back(run_rep(w, opt, traced));
    const Rep& r = reps.back();
    std::cout << "rep " << reps.size() << (traced ? " traced" : "")
              << ": setup " << r.setup_s << " s, run " << r.run_s << " s, "
              << r.num_jobs << " jobs, " << r.windows << " windows, p50 "
              << r.latency_p50_s * 1e3 << " ms\n";
  }

  // Outcomes must repeat exactly; the schedule check must pass every time.
  const Rep& first = reps.front();
  std::vector<std::string> problems;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const Rep& r : reps) {
    attempted += r.check.submitted;
    failed += r.check.submitted - r.check.completed;
    for (const std::string& v : r.check.violations)
      problems.push_back("schedule check: " + v);
    if (r.digest != first.digest || r.num_jobs != first.num_jobs ||
        r.carbon_g != first.carbon_g || r.water_l != first.water_l ||
        r.counters != first.counters)
      problems.push_back("repetitions disagree: decision stream or "
                         "aggregates are not deterministic");
  }
  const bool correct = problems.empty();
  for (const std::string& p : problems)
    std::cout << "CHECK FAILED: " << p << "\n";
  std::cout << "schedule check: " << (correct ? "passed" : "FAILED") << " ("
            << first.check.completed << "/" << first.check.submitted
            << " jobs placed exactly once, " << reps.size()
            << " repetitions)\n";

  const std::optional<std::uint64_t> recorded = recorded_digest(opt);
  std::cout << "decision digest: " << hex(first.digest) << " recorded: "
            << (recorded ? hex(*recorded) : std::string("none")) << "\n";
  if (recorded && *recorded != first.digest) {
    const std::string msg =
        "!!! DECISION STREAM DIGEST MISMATCH for " + w.name + " seed " +
        std::to_string(opt.seed) +
        ": the program no longer makes the recorded decisions.  The "
        "byte-identity invariant requires such a change to be called out.";
    std::cout << msg << "\n";
    std::cerr << msg << "\n";
  }
  const double tail_rule = tail_quantile(first.windows);
  std::cout << "decision latency: p50 and " << percentile(w.tail_q)
            << " over " << first.windows << " windows per repetition ("
            << samples_beyond(first.windows, w.tail_q)
            << " beyond the tail)\n";
  if (tail_rule != w.tail_q)
    std::cout << "WARNING: the tail rule now picks " << percentile(tail_rule)
              << " for " << first.windows << " windows; the workload fixes "
              << percentile(w.tail_q) << "\n";

  std::vector<Metric> metrics;
  if (!opt.trace) {
    const double completed_pct =
        100.0 * static_cast<double>(attempted - failed) /
        static_cast<double>(attempted);
    metrics = {
        {"jobs_per_s", median(collect(reps, [](const Rep& r) {
           return r.jobs_per_s();
         })), "jobs/s"},
        {"decision_ms_p50", 1e3 * median(collect(reps, [](const Rep& r) {
                              return r.latency_p50_s;
                            })), "ms"},
        {"decision_ms_tail", 1e3 * median(collect(reps, [](const Rep& r) {
                               return r.latency_tail_s;
                             })), "ms"},
        {"setup_s", median(collect(reps, [](const Rep& r) {
           return r.setup_s;
         })), "s"},
        {"peak_rss_mb", median(collect(reps, [](const Rep& r) {
           return r.peak_rss_mb;
         })), "MB"},
        {"carbon_kg", first.carbon_g * 1e-3, "kg"},
        {"water_l", first.water_l, "L"},
        {"violation_pct", first.violation_pct, "%"},
        {"service_time_norm", first.service_norm, "x"},
        {"completed_pct", completed_pct, "%"},
    };
  } else {
    Rep& last = *std::find_if(reps.rbegin(), reps.rend(),
                              [](const Rep& r) { return r.traced; });
    if (!opt.trace_dir.empty()) {
      std::filesystem::create_directories(opt.trace_dir);
      const std::string path = opt.trace_dir + "/" + w.name + ".json";
      write_combined_trace(path, last.spans, last.origin_ns, last.program_json);
      std::cout << "trace written to " << path << "\n";
    }
    last.spans = {};
    last.program_json = {};
    std::vector<Rep> traced;
    std::vector<Rep> untraced;
    for (const Rep& r : reps) (r.traced ? traced : untraced).push_back(r);
    const auto med = [&traced](auto f) { return median(collect(traced, f)); };
    const Rep& t = traced.back();
    if (t.dropped_events != 0)
      std::cout << "WARNING: the program trace dropped " << t.dropped_events
                << " events; span times are incomplete\n";

    const double schedule_s = med([](const Rep& r) { return r.schedule_s; });
    const double finish_s = med([](const Rep& r) { return r.finish_s; });
    const double run_s = med([](const Rep& r) { return r.run_s; });
    const double solve_s = med([](const Rep& r) { return r.milp_solve_s; });
    const double presolve_s =
        med([](const Rep& r) { return r.milp_presolve_s; });
    const auto span_self = [&med](const char* name) {
      return med([name](const Rep& r) { return totals(r.profile, name).self_s; });
    };
    const auto span_incl = [&med](const char* name) {
      return med(
          [name](const Rep& r) { return totals(r.profile, name).inclusive_s; });
    };
    const double lp_s = span_incl("milp.lp");
    const double window_incl = span_incl("sched.window");
    const double window_self = span_self("sched.window");
    const double iters = t.counters.at("milp.simplex_iterations");
    const double placed = static_cast<double>(t.check.placed);
    const double untraced_jps =
        median(collect(untraced, [](const Rep& r) { return r.jobs_per_s(); }));
    const double traced_jps = med([](const Rep& r) { return r.jobs_per_s(); });
    const double dc_self_s = run_s - schedule_s - finish_s;
    const double core_self_s = schedule_s - solve_s;

    metrics = {
        {"trace.generate_s", med([](const Rep& r) { return r.setup.generate_s; }), "s"},
        {"env.build_s", med([](const Rep& r) { return r.setup.env_s; }), "s"},
        {"dc.sim_self_s", dc_self_s, "s"},
        {"dc.windows", static_cast<double>(t.windows), "count"},
        {"dc.pending_visits", static_cast<double>(t.pending_visits), "count"},
        {"dc.batch_jobs_p50", t.batch_p50, "count"},
        {"dc.batch_jobs_tail", t.batch_tail, "count"},
        {"dc.decisions_returned", static_cast<double>(t.decisions_returned), "count"},
        {"dc.accept_ratio",
         t.decisions_returned ? placed / static_cast<double>(t.decisions_returned) : 0.0,
         "ratio"},
        {"dc.capacity_queries", static_cast<double>(t.capacity_queries), "count"},
        {"core.schedule_s", schedule_s, "s"},
        {"core.self_s", core_self_s, "s"},
        {"core.finish_s", finish_s, "s"},
        {"core.placed_per_pending",
         t.pending_visits ? placed / static_cast<double>(t.pending_visits) : 0.0,
         "ratio"},
        {"core.build_self_s", span_self("sched.chunk_solve"), "s"},
        {"core.commit_s", span_self("sched.commit") + span_self("sched.spill"), "s"},
        {"core.unattributed_s", schedule_s - window_incl + window_self, "s"},
        {"milp.solve_s", solve_s, "s"},
        {"milp.presolve_s", presolve_s, "s"},
        {"milp.lp_s", lp_s, "s"},
        {"milp.lp_us_per_iter", iters > 0 ? 1e6 * lp_s / iters : 0.0, "us"},
        {"obs.trace_overhead_pct", 100.0 * (untraced_jps / traced_jps - 1.0), "%"},
    };
    for (const auto& [metric, name] : registry_counters())
      metrics.push_back({metric, t.counters.at(metric), "count"});

    // Layer split of Simulator::run (traced), largest first.
    std::vector<std::pair<double, std::string>> split = {
        {dc_self_s, "dc (simulator self)"},
        {finish_s, "core (on_job_finished)"},
        {core_self_s, "core (self)"},
        {presolve_s, "milp.presolve"},
        {lp_s, "milp.lp"},
        {solve_s - presolve_s - lp_s, "milp (solve minus presolve and lp)"},
    };
    std::sort(split.rbegin(), split.rend());
    std::cout << "\nlayer split of Simulator::run (" << fmt(run_s)
              << " s traced):\n";
    for (const auto& [secs, layer] : split) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-36s %10.4f s %6.1f %%",
                    layer.c_str(), secs, 100.0 * secs / run_s);
      std::cout << line << "\n";
    }
    std::cout << "program spans (count, inclusive s, self s):\n";
    for (const auto& [name, tot] : t.profile) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-22s %9lld %10.4f %10.4f",
                    name.c_str(), static_cast<long long>(tot.count),
                    tot.inclusive_s, tot.self_s);
      std::cout << line << "\n";
    }
    std::cout << "tracing overhead: jobs_per_s untraced " << fmt(untraced_jps)
              << " vs traced " << fmt(traced_jps) << " (" << untraced.size()
              << " untraced, " << traced.size() << " traced repetitions)\n";
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) refuse("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") refuse("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--digests") {
      opt.digests_path = value;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      refuse("unknown argument " + arg);
    }
  }
  if (!have_workload) refuse("--workload is required");
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    perfbench::check_build_and_environment();
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
