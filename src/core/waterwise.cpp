#include "core/waterwise.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/slack.hpp"
#include "env/faults.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace ww::core {

namespace {

/// WW_SCHED_THREADS overrides WaterWiseConfig::solver_threads process-wide
/// (mirroring WW_PRESOLVE / WW_REFACTOR_EVERY_PIVOT): a non-negative integer
/// thread count, 0 = all cores.  Unset or unparsable leaves the config in
/// charge.  Cached: the switch is a process property, not a per-call one.
std::optional<int> sched_threads_override() noexcept {
  static const std::optional<int> value = []() -> std::optional<int> {
    const char* v = std::getenv("WW_SCHED_THREADS");
    if (v == nullptr || *v == '\0') return std::nullopt;
    char* end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || parsed < 0 || parsed > 1024)
      return std::nullopt;
    return static_cast<int>(parsed);
  }();
  return value;
}

}  // namespace

double default_solve_failure_rate() noexcept {
  static const double value = [] {
    const char* v = std::getenv("WW_FAULT_SOLVES");
    if (v == nullptr || *v == '\0') return 0.0;
    char* end = nullptr;
    const double parsed = std::strtod(v, &end);
    if (end == v || *end != '\0' || !(parsed >= 0.0) || parsed > 1.0)
      return 0.0;
    return parsed;
  }();
  return value;
}

WaterWiseScheduler::WaterWiseScheduler(WaterWiseConfig config)
    : config_(config) {
  if (config_.lambda_co2 < 0.0 || config_.lambda_h2o < 0.0)
    throw std::invalid_argument("WaterWise: lambda weights must be >= 0");
  const double sum = config_.lambda_co2 + config_.lambda_h2o;
  if (sum <= 0.0)
    throw std::invalid_argument("WaterWise: lambda weights must sum > 0");
  // The paper requires the weights to sum to one; normalize defensively.
  config_.lambda_co2 /= sum;
  config_.lambda_h2o /= sum;
  register_metrics();
  if (config_.trace) obs::Trace::instance().set_enabled(true);
}

void WaterWiseScheduler::register_metrics() {
  auto& r = registry_;
  // Solver work per milp::solve (add_solve): tree size, warm-start coverage
  // (warm_started_nodes re-solved from a parent basis, phase1_nodes that
  // needed artificials), sparse-kernel work, greedy-seeded solves, and the
  // presolve reductions the simplex never saw.
  handles_.milp_solves = r.counter("sched.milp_solves");
  handles_.soft_fallbacks = r.counter("sched.soft_fallbacks");
  handles_.nodes_explored = r.counter("sched.nodes_explored");
  handles_.simplex_iterations = r.counter("sched.simplex_iterations");
  handles_.warm_started_nodes = r.counter("sched.warm_started_nodes");
  handles_.phase1_nodes = r.counter("sched.phase1_nodes");
  handles_.refactorizations = r.counter("sched.refactorizations");
  handles_.ft_updates = r.counter("sched.ft_updates");
  handles_.seeded_incumbents = r.counter("sched.seeded_incumbents");
  handles_.presolve_rows_removed = r.counter("sched.presolve_rows_removed");
  handles_.presolve_cols_removed = r.counter("sched.presolve_cols_removed");
  handles_.presolve_nonzeros_removed =
      r.counter("sched.presolve_nonzeros_removed");
  // Pipeline: chunk plans produced, spill re-solves and the jobs they took.
  handles_.chunks_planned = r.counter("sched.chunks_planned");
  handles_.spill_jobs = r.counter("sched.spill_jobs");
  handles_.spill_resolves = r.counter("sched.spill_resolves");
  // Retry ladder and degraded mode (see "Graceful degradation"):
  // soft_fallbacks counts hard models that failed into the soft model.
  handles_.fault_events = r.counter("sched.fault_events");
  handles_.degraded_windows = r.counter("sched.degraded_windows");
  handles_.solve_retries = r.counter("sched.solve_retries");
  handles_.fallback_placements = r.counter("sched.fallback_placements");
  handles_.deferred_jobs = r.counter("sched.deferred_jobs");
  // Chunks the hard rung's pre-pass placed without building a model.
  handles_.forced_chunks = r.counter("sched.forced_chunks");
  handles_.windows = r.counter("sched.windows");
  // Wall-clock sums inside milp::solve (presolve included in solve).
  handles_.presolve_seconds = r.gauge("sched.presolve_seconds");
  handles_.solve_seconds = r.gauge("sched.solve_seconds");
  // Service-level distributions.  decision_latency is wall-clock and
  // observational; queue_depth and time_to_admission are sim-time/count
  // based and byte-deterministic.
  handles_.decision_latency_s =
      r.histogram("service.decision_latency_s", 0.0, 2.0, 80);
  handles_.queue_depth = r.histogram("service.queue_depth", 0.0, 2048.0, 64);
  handles_.time_to_admission_s =
      r.histogram("service.time_to_admission_s", 0.0, 3600.0, 72);
  // Work-stealing visibility (observational, like decision_latency_s):
  // deltas of the global pool's counters around each window's fan-out.
  handles_.tasks_stolen = r.counter("pool.tasks_stolen");
  handles_.steal_attempts = r.counter("pool.steal_attempts");
  handles_.pool_depth = r.gauge("pool.queue_depth");
}

void WaterWiseScheduler::add_solve(const milp::Solution& sol,
                                   obs::Shard& shard) const {
  const auto add = [&shard](obs::Counter c, long v) {
    if (v > 0) shard.add(c, static_cast<std::uint64_t>(v));
  };
  shard.add(handles_.milp_solves);
  add(handles_.nodes_explored, sol.nodes_explored);
  add(handles_.simplex_iterations, sol.simplex_iterations);
  add(handles_.warm_started_nodes, sol.warm_started_nodes);
  add(handles_.phase1_nodes, sol.phase1_nodes);
  add(handles_.refactorizations, sol.refactorizations);
  add(handles_.ft_updates, sol.ft_updates);
  add(handles_.presolve_rows_removed, sol.presolve_rows_removed);
  add(handles_.presolve_cols_removed, sol.presolve_cols_removed);
  add(handles_.presolve_nonzeros_removed, sol.presolve_nonzeros_removed);
  shard.add(handles_.presolve_seconds, sol.presolve_seconds);
  shard.add(handles_.solve_seconds, sol.solve_seconds);
}

std::size_t WaterWiseScheduler::effective_solver_threads() const noexcept {
  const int configured =
      sched_threads_override().value_or(config_.solver_threads);
  return util::WorkStealingPool::resolve_threads(
      configured <= 0 ? 0 : static_cast<std::size_t>(configured));
}

struct WaterWiseScheduler::ChunkPricing {
  struct Job {
    double allowance;     ///< Eq. 11 delay allowance left after waiting.
    double penalty_rate;  ///< Eq. 12 objective weight per second of excess.
  };
  struct Pair {
    double latency;     ///< Transfer latency from the job's home region.
    double exceedance;  ///< latency - allowance.
    double cost;        ///< Eq. 8 coefficient of x_mn, epsilon included.
    /// The hard model's Eq. 11 rule: latency > allowance forbids the pair.
    [[nodiscard]] bool late() const noexcept { return exceedance > 0.0; }
  };
  /// What the hard rung's pre-pass proved about the chunk.
  enum class Forced {
    Mixed,       ///< Some job has a choice: the hard model decides.
    Placed,      ///< Every job has one admissible region, and they fit.
    Infeasible,  ///< The hard model has no feasible point.
  };
  int n = 0;
  /// The cost stage has run: `Pair::cost` and `region_cost` are filled.
  bool costed = false;
  std::vector<Job> jobs;
  std::vector<Pair> pairs;  ///< Job-major: pair (j, r) is x variable j*n+r.
  /// Region-level normalised carbon/water intensity: the greedy fallback's
  /// cost, the Eq. 8 objective without the per-job energy factor (which
  /// scales every region alike and so never changes the argmin).
  std::vector<double> region_cost;

  [[nodiscard]] const Pair& at(int j, int r) const {
    return pairs[static_cast<std::size_t>(j * n + r)];
  }

  /// The hard model's singleton-row presolve, run before any model exists
  /// (Andersen & Andersen, "Presolving in linear programming", 1995): a
  /// pair is admissible when its region has quota and it is not late.  A
  /// job with no admissible pair, or more single-region jobs on a region
  /// than its quota, makes the hard model infeasible.  When every job has
  /// exactly one admissible pair and they fit, that assignment is the hard
  /// model's only feasible point; `only` then holds it, one region per job.
  [[nodiscard]] Forced forced(const std::vector<int>& quota,
                              std::vector<int>& only) const {
    const std::size_t m = jobs.size();
    only.assign(m, -1);
    std::vector<int> demand(quota.size(), 0);
    bool all_forced = true;
    for (std::size_t j = 0; j < m; ++j) {
      int admissible = 0;
      for (int r = 0; r < n; ++r) {
        if (quota[static_cast<std::size_t>(r)] <= 0 ||
            at(static_cast<int>(j), r).late())
          continue;
        ++admissible;
        only[j] = r;
      }
      if (admissible == 0) return Forced::Infeasible;
      if (admissible == 1)
        ++demand[static_cast<std::size_t>(only[j])];
      else
        all_forced = false;
    }
    for (std::size_t r = 0; r < quota.size(); ++r)
      if (demand[r] > quota[r]) return Forced::Infeasible;
    return all_forced ? Forced::Placed : Forced::Mixed;
  }
};

namespace {

/// max(1e-12, v[0..n)): the Eq. 8 normaliser, positive even for all-zero v.
double normaliser(const double* v, int n) {
  double mx = 1e-12;
  for (int r = 0; r < n; ++r) mx = std::max(mx, v[r]);
  return mx;
}

/// Most-constrained-first greedy shared by the seed incumbent and the
/// fallback rung: jobs in stable order of descending estimated runtime,
/// each taking the first strict minimum of `key(j, r)` among the regions
/// with quota left that `admissible(j, r)` accepts.  Returns one region per
/// job, -1 where none was left; placements never exceed `quota_left`.
template <class Key, class Admissible>
std::vector<int> greedy_assign(const std::vector<const dc::PendingJob*>& jobs,
                               std::vector<int> quota_left, const Key& key,
                               const Admissible& admissible) {
  const int n = static_cast<int>(quota_left.size());
  std::vector<int> order(jobs.size());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = static_cast<int>(j);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return jobs[static_cast<std::size_t>(a)]->est_exec_s >
           jobs[static_cast<std::size_t>(b)]->est_exec_s;
  });
  std::vector<int> assign(jobs.size(), -1);
  for (const int j : order) {
    int chosen = -1;
    decltype(key(0, 0)) best{};
    for (int r = 0; r < n; ++r) {
      if (quota_left[static_cast<std::size_t>(r)] <= 0 || !admissible(j, r))
        continue;
      const auto k = key(j, r);
      if (chosen < 0 || k < best) {
        chosen = r;
        best = k;
      }
    }
    if (chosen < 0) continue;
    --quota_left[static_cast<std::size_t>(chosen)];
    assign[static_cast<std::size_t>(j)] = chosen;
  }
  return assign;
}

}  // namespace

WaterWiseScheduler::ChunkPricing WaterWiseScheduler::price_chunk(
    const ChunkPlan& plan, const dc::ScheduleContext& ctx) const {
  const int m = static_cast<int>(plan.jobs.size());
  const int n = static_cast<int>(plan.quota.size());
  ChunkPricing price;
  price.n = n;
  price.jobs.resize(static_cast<std::size_t>(m));
  price.pairs.resize(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
  for (int j = 0; j < m; ++j) {
    const dc::PendingJob& p = *plan.jobs[static_cast<std::size_t>(j)];
    // The remaining allowance discounts time already spent waiting in the
    // controller.
    const double waited = ctx.now - p.first_seen;
    const double allowance = std::max(
        0.0, ctx.tol * config_.delay_estimate_margin * p.est_exec_s - waited);
    price.jobs[static_cast<std::size_t>(j)] = {
        allowance, config_.sigma / std::max(1.0, ctx.tol * p.est_exec_s)};
    for (int r = 0; r < n; ++r) {
      ChunkPricing::Pair& pair =
          price.pairs[static_cast<std::size_t>(j * n + r)];
      pair.latency = ctx.env->transfer_latency_seconds(
          p.job->home_region, r, p.job->package_bytes);
      pair.exceedance = pair.latency - allowance;
    }
  }
  return price;
}

void WaterWiseScheduler::cost_chunk(const ChunkPlan& plan,
                                    const dc::ScheduleContext& ctx,
                                    ChunkPricing& price) const {
  const int m = static_cast<int>(plan.jobs.size());
  const int n = price.n;
  price.region_cost.resize(static_cast<std::size_t>(n));
  // One job's raw Eq. 8 terms per region (CO2, H2O, USD, perf), reused.
  std::vector<double> raw(4 * static_cast<std::size_t>(n));
  double* const co2 = raw.data();
  double* const h2o = co2 + n;
  double* const usd = h2o + n;
  double* const perf = usd + n;

  for (int j = 0; j < m; ++j) {
    const dc::PendingJob& p = *plan.jobs[static_cast<std::size_t>(j)];
    for (int r = 0; r < n; ++r) {
      // Decision-time estimates: current intensities, estimated E and t.
      const footprint::Breakdown fb = ctx.footprint->job_at(
          r, ctx.now, p.est_energy_kwh, p.est_exec_s);
      const footprint::Breakdown tb = ctx.footprint->transfer(
          p.job->home_region, r, p.job->package_bytes, ctx.now);
      co2[r] = fb.carbon_g() + tb.carbon_g();
      h2o[r] = fb.water_l() + tb.water_l();
      if (config_.lambda_cost > 0.0)
        usd[r] = ctx.env->pue(r) * p.est_energy_kwh *
                 ctx.env->electricity_price(r, ctx.now);
      perf[r] = price.at(j, r).latency / std::max(1.0, p.est_exec_s);
    }
    const double co2_max = normaliser(co2, n);
    const double h2o_max = normaliser(h2o, n);
    for (int r = 0; r < n; ++r) {
      double cost = config_.lambda_co2 * co2[r] / co2_max +
                    config_.lambda_h2o * h2o[r] / h2o_max;
      if (config_.lambda_cost > 0.0)
        cost += config_.lambda_cost * usd[r] / normaliser(usd, n);
      if (config_.lambda_perf > 0.0)
        cost += config_.lambda_perf * perf[r] / normaliser(perf, n);
      if (config_.enable_history) {
        cost += config_.lambda_ref *
                (config_.lambda_co2 * history_->carbon_ref(r) +
                 config_.lambda_h2o * history_->water_ref(r));
      }
      // Deterministic symmetry-breaking epsilon: jobs of the same benchmark
      // share identical estimates, which otherwise makes the branch-and-
      // bound tree explore exponentially many equivalent assignments.
      cost += 1e-9 * static_cast<double>(j * n + r);
      price.pairs[static_cast<std::size_t>(j * n + r)].cost = cost;
    }
  }

  double* const ci = raw.data();
  double* const wi = ci + n;
  for (int r = 0; r < n; ++r) {
    ci[r] = ctx.env->carbon_intensity(r, ctx.now);
    wi[r] = ctx.env->water_intensity(r, ctx.now);
  }
  const double ci_max = normaliser(ci, n);
  const double wi_max = normaliser(wi, n);
  for (int r = 0; r < n; ++r)
    price.region_cost[static_cast<std::size_t>(r)] =
        config_.lambda_co2 * ci[r] / ci_max +
        config_.lambda_h2o * wi[r] / wi_max;
  price.costed = true;
}

milp::Solution WaterWiseScheduler::run_model(const ChunkPlan& plan,
                                             const ChunkPricing& price,
                                             bool soft, long budget_scale,
                                             obs::Shard& shard) const {
  const int m = static_cast<int>(plan.jobs.size());
  const int n = price.n;
  const std::vector<int>& quota = plan.quota;
  milp::Model model;
  // Unnamed variables/constraints (names are synthesized on demand for
  // debugging) and pre-sized vectors: a 400-job x 10-region chunk would
  // otherwise allocate thousands of "x_j_r" strings per batch window.
  // The soft model adds up to one penalty variable and one delay row per
  // (job, region) pair on top of the assignment block.
  if (soft)
    model.reserve(2 * m * n, m + n + m * n);
  else
    model.reserve(m * n, m + n);

  // x_mn assignment binaries, laid out row-major (job-major): x_mn is
  // variable j*n+r, priced by the Eq. 8 objective (normalized footprint
  // costs + history reference terms).
  for (const ChunkPricing::Pair& pair : price.pairs)
    (void)model.add_binary(pair.cost);

  // A region with no quota cannot take any job from this chunk.  The
  // capacity row (sum x <= 0) already implies it, but stating the fixings
  // as explicit bounds lets presolve substitute the columns out (and drop
  // the then-empty capacity row) before the simplex ever sees them.
  //
  // Hard Eq. 11: since exactly one x_mn is 1, the summed-latency row is
  // equivalent to forbidding every region whose transfer latency exceeds
  // the allowance.  Expressing it as bound fixing (x_mn = 0) keeps the
  // LP relaxation a pure transportation polytope — integral vertices,
  // instant infeasibility detection — where an explicit row would admit
  // fractional "free allowance" points and force branching.
  for (int j = 0; j < m; ++j)
    for (int r = 0; r < n; ++r)
      if (quota[static_cast<std::size_t>(r)] <= 0 ||
          (!soft && price.at(j, r).late()))
        model.set_variable_bounds(j * n + r, 0.0, 0.0);

  // Eq. 9: each job placed exactly once.
  for (int j = 0; j < m; ++j) {
    std::vector<milp::Term> terms;
    terms.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) terms.push_back({j * n + r, 1.0});
    (void)model.add_constraint(std::move(terms), milp::Sense::Equal, 1.0);
  }

  // Eq. 10: region capacity — this chunk's private quota, never the shared
  // window capacity, so concurrent chunks cannot double-book a region.
  for (int r = 0; r < n; ++r) {
    std::vector<milp::Term> terms;
    terms.reserve(static_cast<std::size_t>(m));
    for (int j = 0; j < m; ++j) terms.push_back({j * n + r, 1.0});
    (void)model.add_constraint(
        std::move(terms), milp::Sense::LessEqual,
        static_cast<double>(quota[static_cast<std::size_t>(r)]));
  }

  // Eq. 12-13 (soft): the paper's per-(job, region) penalty variables
  // P_mn >= (L_mn - allowance_m) * x_mn: the exceedance this placement
  // would cause, proportional to x so the relaxation has no penalty-free
  // fractional region and LP vertices stay integral.  Because exactly one
  // x_mn is 1, this agrees with Eq. 11's per-job summed row at integral
  // points, but the per-pair form keeps the LP relaxation near-integral (a
  // per-job penalty would let fractional solutions absorb the allowance
  // "for free", opening a large LP/MIP gap that forces branch-and-bound to
  // enumerate job subsets).  `pvar` maps each pair to its P_mn for the seed.
  std::vector<int> pvar;
  if (soft) {
    pvar.assign(price.pairs.size(), -1);
    for (int j = 0; j < m; ++j) {
      for (int r = 0; r < n; ++r) {
        const ChunkPricing::Pair& pair = price.at(j, r);
        // No quota: x_mn fixed to 0 above.  Not late: cannot violate.
        if (quota[static_cast<std::size_t>(r)] <= 0 || !pair.late()) continue;
        const int pmn = model.add_continuous(
            0.0, milp::kInfinity,
            price.jobs[static_cast<std::size_t>(j)].penalty_rate);
        (void)model.add_constraint({{j * n + r, pair.exceedance}, {pmn, -1.0}},
                                   milp::Sense::LessEqual, 0.0);
        pvar[static_cast<std::size_t>(j * n + r)] = pmn;
      }
    }
  }

  milp::SolverOptions options = config_.solver;
  if (budget_scale > 1) {
    // Retry rung: relax the deterministic budgets (saturating multiply).
    const long cap = std::numeric_limits<long>::max();
    options.max_nodes = options.max_nodes > cap / budget_scale
                            ? cap
                            : options.max_nodes * budget_scale;
    options.max_iterations = options.max_iterations > cap / budget_scale
                                 ? cap
                                 : options.max_iterations * budget_scale;
  }
  if (!soft && config_.enable_soft_constraints) {
    // With softening enabled the hard model is a feasibility probe: when its
    // LP relaxation is fractionally feasible but no integral point exists
    // (capacity overflow against tight delay rows), branch-and-bound would
    // have to enumerate the tree to prove infeasibility.  Cap the probe's
    // effort — an inconclusive probe falls through to the soft model
    // (Algorithm 1, lines 10-11) exactly like a proven-infeasible one.
    // A conservative (false-negative) probe is harmless: softening is
    // always valid, so the probe gets a small budget.  In the soft-disabled
    // ablation the hard model is the primary model and keeps (scaled) full
    // budgets, so the ladder's retry rung has headroom to use.
    options.max_nodes = std::min<long>(options.max_nodes, 200);
  }

  // Greedy seed incumbent: each job at its cheapest admissible region with
  // remaining quota, its x coefficient plus the penalty its exceedance
  // would pay.  The resulting feasible point enters branch-and-bound as the
  // initial upper bound, so best-first search prunes from node 0 instead of
  // waiting for its first dive to bottom out.
  //
  // The budget-capped *hard* model is a feasibility probe (Algorithm 1,
  // lines 10-11): an inconclusive probe must stay unusable so the chunk
  // falls through to the penalty-optimized soft model.  A seed would make
  // the probe always usable and commit the raw greedy assignment instead,
  // so seeding applies only to the soft model — where the weak relaxation
  // actually branches — and to the soft-disabled ablation.
  std::optional<milp::Solution> seed;
  if (soft || !config_.enable_soft_constraints) {
    const std::vector<int> assign = greedy_assign(
        plan.jobs, quota,
        [&](int j, int r) {
          const ChunkPricing::Pair& pair = price.at(j, r);
          double c = pair.cost;
          if (soft && pair.late())
            c += price.jobs[static_cast<std::size_t>(j)].penalty_rate *
                 pair.exceedance;
          return c;
        },
        [&](int j, int r) { return soft || !price.at(j, r).late(); });
    // A job with no admissible region left means no seed: the solver
    // decides alone.
    if (std::find(assign.begin(), assign.end(), -1) == assign.end()) {
      std::vector<double> vals(static_cast<std::size_t>(model.num_variables()),
                               0.0);
      for (int j = 0; j < m; ++j) {
        const int r = assign[static_cast<std::size_t>(j)];
        vals[static_cast<std::size_t>(j * n + r)] = 1.0;
        if (soft && price.at(j, r).late())
          vals[static_cast<std::size_t>(
              pvar[static_cast<std::size_t>(j * n + r)])] =
              price.at(j, r).exceedance;
      }
      seed = milp::Solution::incumbent_from_heuristic(model, std::move(vals));
      shard.add(handles_.seeded_incumbents);
    }
  }

  milp::Solution sol =
      milp::solve(model, options, seed ? &*seed : nullptr);
  add_solve(sol, shard);
  return sol;
}

std::vector<ChunkPlan> WaterWiseScheduler::plan_chunks(
    const std::vector<const dc::PendingJob*>& selected,
    const std::vector<int>& caps) const {
  const int n = static_cast<int>(caps.size());
  const auto chunk_cap = static_cast<std::size_t>(
      std::max(1, config_.max_jobs_per_solve));
  std::vector<ChunkPlan> plans;
  if (selected.empty()) return plans;
  const std::size_t num_chunks = (selected.size() + chunk_cap - 1) / chunk_cap;
  plans.resize(num_chunks);
  for (std::size_t k = 0; k < num_chunks; ++k) {
    const std::size_t begin = k * chunk_cap;
    const std::size_t end = std::min(selected.size(), begin + chunk_cap);
    plans[k].index = static_cast<int>(k);
    plans[k].jobs.assign(
        selected.begin() + static_cast<std::ptrdiff_t>(begin),
        selected.begin() + static_cast<std::ptrdiff_t>(end));
    plans[k].quota.assign(static_cast<std::size_t>(n), 0);
  }
  if (num_chunks == 1) {
    // The common case: one chunk owns the whole window's capacity, making
    // the pipeline placement-identical to a monolithic solve.
    plans[0].quota = caps;
    return plans;
  }

  // Apportion every region's capacity across chunks proportionally to chunk
  // size by the largest-remainder method; remainder ties break toward the
  // lower chunk index.  All capacity is handed out — slots no chunk uses
  // flow back through ChunkResult::leftover into the spill pool.
  std::size_t total_jobs = 0;
  for (const ChunkPlan& p : plans) total_jobs += p.jobs.size();
  std::vector<long> chunk_total(num_chunks, 0);
  std::vector<std::pair<double, std::size_t>> frac(num_chunks);
  for (int r = 0; r < n; ++r) {
    const long cap = caps[static_cast<std::size_t>(r)];
    if (cap <= 0) continue;
    long handed = 0;
    for (std::size_t k = 0; k < num_chunks; ++k) {
      const double exact =
          static_cast<double>(cap) *
          (static_cast<double>(plans[k].jobs.size()) /
           static_cast<double>(total_jobs));
      const long share = static_cast<long>(std::floor(exact));
      plans[k].quota[static_cast<std::size_t>(r)] += static_cast<int>(share);
      chunk_total[k] += share;
      handed += share;
      frac[k] = {exact - static_cast<double>(share), k};
    }
    // Largest fractional remainder first; equal remainders go to the lower
    // chunk index (stable sort on a deterministically ordered input).
    std::stable_sort(frac.begin(), frac.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (long i = 0; i < cap - handed; ++i) {
      const std::size_t k =
          frac[static_cast<std::size_t>(i) % num_chunks].second;
      plans[k].quota[static_cast<std::size_t>(r)] += 1;
      chunk_total[k] += 1;
    }
  }

  // Repair pass: per-region rounding can leave a chunk with fewer total
  // slots than jobs (adversarial tiny-capacity windows: many cap-1 regions
  // whose remainders all land on one chunk).  Move single slots from the
  // largest-surplus chunk (ties: lower index), taking from its
  // largest-quota region (ties: lower region), until every chunk covers
  // its job count.  Total capacity >= total selected jobs (the slack
  // manager guarantees it), so enough surplus always exists.
  for (std::size_t k = 0; k < num_chunks; ++k) {
    while (chunk_total[k] < static_cast<long>(plans[k].jobs.size())) {
      std::size_t donor = num_chunks;
      long best_surplus = 0;
      for (std::size_t j = 0; j < num_chunks; ++j) {
        const long surplus =
            chunk_total[j] - static_cast<long>(plans[j].jobs.size());
        if (surplus > best_surplus) {
          best_surplus = surplus;
          donor = j;
        }
      }
      if (donor == num_chunks) break;  // defensive: selected exceeded caps
      int region = -1;
      for (int r = 0; r < n; ++r) {
        if (plans[donor].quota[static_cast<std::size_t>(r)] <= 0) continue;
        if (region < 0 || plans[donor].quota[static_cast<std::size_t>(r)] >
                              plans[donor].quota[static_cast<std::size_t>(
                                  region)])
          region = r;
      }
      if (region < 0) break;  // defensive: donor surplus was stale
      plans[donor].quota[static_cast<std::size_t>(region)] -= 1;
      chunk_total[donor] -= 1;
      plans[k].quota[static_cast<std::size_t>(region)] += 1;
      chunk_total[k] += 1;
    }
  }
  return plans;
}

ChunkResult WaterWiseScheduler::solve_one(const ChunkPlan& plan,
                                          const dc::ScheduleContext& ctx)
    const {
  if (config_.chunk_solve_hook) config_.chunk_solve_hook(plan.index);
  const int n = static_cast<int>(plan.quota.size());
  ChunkResult out;
  out.index = plan.index;
  out.leftover = plan.quota;
  out.shard = registry_.make_shard();

  obs::Span span("sched.chunk_solve");
  span.arg("chunk", plan.index);
  span.arg("jobs", plan.jobs.size());
  // Retry-ladder rung that produced the chunk's placements: 0 = the hard
  // rung's pre-pass, 1 = primary MILP, 2 = relaxed-budget retry, 3 = greedy
  // fallback.  Annotated on the span together with the per-solve solver
  // counters.
  int rung = 1;
  const auto annotate = [this, &span, &out](int final_rung) {
    const auto count = [&out](obs::Counter c) {
      return out.shard.counter_value(c);
    };
    span.arg("rung", final_rung);
    span.arg("milp_solves", count(handles_.milp_solves));
    span.arg("simplex_iterations", count(handles_.simplex_iterations));
    span.arg("nodes_explored", count(handles_.nodes_explored));
    span.arg("ft_updates", count(handles_.ft_updates));
    span.arg("presolve_rows_removed", count(handles_.presolve_rows_removed));
    span.arg("retries", count(handles_.solve_retries));
    span.arg("decisions", out.decisions.size());
  };

  // Injected solve failure (WW_FAULT_SOLVES / config): a pure function of
  // (seed, window, chunk, attempt), so the same campaign hits the same
  // ladder rungs at every thread count.  A hit discards the rung's outcome
  // exactly as a real solver crash would.
  const auto injected = [&](int attempt) {
    if (!env::injected_solve_failure(config_.fault_seed, ctx.now, plan.index,
                                     attempt, config_.solve_failure_rate))
      return false;
    out.shard.add(handles_.fault_events);
    return true;
  };

  // Every rung below reads this one table; nothing re-prices a pair.  The
  // Eq. 8 costs are filled the first time a rung needs them, so a chunk
  // the pre-pass decides never prices a footprint.
  ChunkPricing price = price_chunk(plan, ctx);
  const auto costed = [&]() -> const ChunkPricing& {
    if (!price.costed) cost_chunk(plan, ctx, price);
    return price;
  };

  // Places job j in region r (r < 0: none) against the leftover quota, or
  // leaves it spill-eligible.  The start time is the transfer latency away.
  const auto place = [&](int j, int r) {
    const dc::PendingJob& p = *plan.jobs[static_cast<std::size_t>(j)];
    if (r < 0 || out.leftover[static_cast<std::size_t>(r)] <= 0) {
      out.unplaced.push_back(&p);
      return false;
    }
    --out.leftover[static_cast<std::size_t>(r)];
    out.decisions.push_back(
        dc::Decision{p.job->id, r, ctx.now + price.at(j, r).latency, 1.0});
    // Sim-time wait from first sighting to admission: deterministic.
    out.shard.observe(handles_.time_to_admission_s, ctx.now - p.first_seen);
    return true;
  };

  // --- Retry-then-degrade ladder ------------------------------------------
  // Rung 0: the hard model (Eq. 9-11), a feasibility probe when softening
  //         is on and the primary model (rung 1) in the soft-disabled
  //         ablation.  Its pre-pass decides it without a model when every
  //         job has one admissible region, and skips it when infeasible.
  // Rung 1: the soft model (Eq. 12-13), when softening is on.
  // Rung 2: one retry of the primary model with relaxed node/iteration
  //         budgets — skipped when the model is *proven* infeasible, since
  //         a bigger tree can only re-prove it.
  // Rung 3: guaranteed-feasible greedy placement against the chunk quota.
  // Remainder: spill-eligible, then an explicit deferral — never a drop.
  const bool soft_on = config_.enable_soft_constraints;
  std::vector<int> only;
  const ChunkPricing::Forced forced = price.forced(plan.quota, only);
  milp::Solution sol;
  if (forced == ChunkPricing::Forced::Mixed)
    sol = run_model(plan, costed(), /*soft=*/false, /*budget_scale=*/1,
                    out.shard);
  bool decided = forced == ChunkPricing::Forced::Placed;
  bool proven_infeasible =
      !soft_on && (forced == ChunkPricing::Forced::Mixed
                       ? sol.status == milp::Status::Infeasible
                       : forced == ChunkPricing::Forced::Infeasible);
  // An injected failure loses the outcome, the pre-pass's as a solve's,
  // *and* the infeasibility proof.
  if (injected(soft_on ? 0 : 1)) {
    sol = milp::Solution{};
    decided = false;
    proven_infeasible = false;
  }

  if (decided) {
    // The hard model's only feasible point: every job at its one
    // admissible region, within quota by the pre-pass's check.
    for (int j = 0; j < static_cast<int>(plan.jobs.size()); ++j)
      (void)place(j, only[static_cast<std::size_t>(j)]);
    out.shard.add(handles_.forced_chunks);
    annotate(0);
    return out;
  }

  if (soft_on && !sol.usable()) {
    // Algorithm 1, lines 10-11: soften and retry.
    out.shard.add(handles_.soft_fallbacks);
    sol = run_model(plan, costed(), /*soft=*/true, /*budget_scale=*/1,
                    out.shard);
    if (injected(1)) sol = milp::Solution{};
  }

  if (!sol.usable() && !proven_infeasible) {
    out.shard.add(handles_.solve_retries);
    sol = run_model(plan, costed(), /*soft=*/soft_on,
                    config_.retry_budget_multiplier, out.shard);
    if (injected(2)) sol = milp::Solution{};
    if (sol.usable()) rung = 2;
  }

  if (!sol.usable()) {
    // Rung 3: place what the quota admits via the deterministic greedy,
    // cheapest region cost first among the delay-admissible regions.
    // Delay violations are allowed exactly when the soft model would have
    // traded them: a job with no admissible region then takes the least
    // exceedance, then the cheapest, mirroring the soft model's penalty
    // trade.  The soft-disabled ablation keeps Eq. 11 hard, so there the
    // greedy defers instead — the backlog is that ablation's measurement.
    // The remainder spills, then defers explicitly.
    (void)costed();
    const std::vector<int> assign = greedy_assign(
        plan.jobs, out.leftover,
        [&](int j, int r) {
          const ChunkPricing::Pair& pair = price.at(j, r);
          const bool late = pair.late();
          const double cost = price.region_cost[static_cast<std::size_t>(r)];
          return std::make_tuple(late, late ? pair.exceedance : 0.0, cost);
        },
        [&](int j, int r) { return soft_on || !price.at(j, r).late(); });
    for (int j = 0; j < static_cast<int>(plan.jobs.size()); ++j)
      if (place(j, assign[static_cast<std::size_t>(j)]))
        out.shard.add(handles_.fallback_placements);
    annotate(3);
    return out;
  }

  for (int j = 0; j < static_cast<int>(plan.jobs.size()); ++j) {
    // Eq. 9 places every job and Eq. 10 caps placements at the quota, so
    // both of place()'s guards are defensive here (a budget-limited
    // incumbent is still feasible); an unplaced job is spill-eligible
    // rather than dropped.
    int chosen = -1;
    for (int r = 0; r < n; ++r) {
      if (sol.values[static_cast<std::size_t>(j * n + r)] > 0.5) {
        chosen = r;
        break;
      }
    }
    (void)place(j, chosen);
  }
  annotate(rung);
  return out;
}

std::vector<dc::Decision> WaterWiseScheduler::commit(
    std::vector<ChunkResult>&& results, const dc::ScheduleContext& ctx) {
  obs::Span span("sched.commit");
  span.arg("chunks", results.size());
  std::vector<dc::Decision> decisions;
  if (results.empty()) return decisions;
  // Deterministic reduction: chunk-index order, never completion order.
  std::sort(results.begin(), results.end(),
            [](const ChunkResult& a, const ChunkResult& b) {
              return a.index < b.index;
            });

  // Fail fast on any chunk whose solve threw inside the pooled fan-out:
  // surface the lowest-index failure with chunk/window context instead of
  // committing a batch that silently lost a chunk's decisions.
  for (const ChunkResult& r : results) {
    if (r.error.empty()) continue;
    throw std::runtime_error("WaterWise: chunk " + std::to_string(r.index) +
                             " solve failed at window t=" +
                             std::to_string(ctx.now) + ": " + r.error);
  }

  std::vector<int> spill(results.front().leftover.size(), 0);
  std::vector<const dc::PendingJob*> unplaced;
  int next_index = 0;
  for (ChunkResult& r : results) {
    // Registry accumulation in chunk-index order (results are sorted
    // above), so counter and histogram bytes match at every thread count.
    registry_.merge_shard(r.shard);
    decisions.insert(decisions.end(), r.decisions.begin(), r.decisions.end());
    for (std::size_t i = 0; i < spill.size(); ++i)
      spill[i] += r.leftover[i];
    unplaced.insert(unplaced.end(), r.unplaced.begin(), r.unplaced.end());
    next_index = r.index + 1;
  }

  long spill_total = 0;
  for (const int s : spill) spill_total += s;
  if (unplaced.empty()) return decisions;
  if (spill_total <= 0) {
    // No pooled quota left: every unplaced job is an explicit deferral to
    // the next batch window.
    registry_.add(handles_.deferred_jobs, unplaced.size());
    return decisions;
  }
  const obs::Span spill_span("sched.spill");

  // One serial spill re-solve: jobs no chunk placed get the pooled unused
  // quota, exactly as a serial scheduler with the same quotas would.  Jobs
  // beyond the pool (or beyond one chunk's worth) stay pending and reappear
  // in the next batch window, matching the pre-pipeline deferral behavior.
  ChunkPlan rest;
  rest.index = next_index;
  const long unplaced_total = static_cast<long>(unplaced.size());
  rest.jobs = std::move(unplaced);
  const auto spill_jobs = static_cast<std::size_t>(
      std::min<long>({static_cast<long>(rest.jobs.size()), spill_total,
                      static_cast<long>(
                          std::max(1, config_.max_jobs_per_solve))}));
  rest.jobs.resize(spill_jobs);
  rest.quota = std::move(spill);
  registry_.add(handles_.spill_resolves);
  registry_.add(handles_.spill_jobs, rest.jobs.size());
  ChunkResult rr;
  try {
    rr = solve_one(rest, ctx);
  } catch (const std::exception& e) {
    throw std::runtime_error("WaterWise: spill re-solve (chunk " +
                             std::to_string(rest.index) +
                             ") failed at window t=" + std::to_string(ctx.now) +
                             ": " + e.what());
  }
  registry_.merge_shard(rr.shard);
  decisions.insert(decisions.end(), rr.decisions.begin(), rr.decisions.end());
  // Whatever even the spill re-solve could not place defers explicitly:
  // jobs truncated from the spill chunk plus the re-solve's own unplaced.
  registry_.add(
      handles_.deferred_jobs,
      static_cast<std::uint64_t>(
          unplaced_total - static_cast<long>(rr.decisions.size())));
  return decisions;
}

std::vector<dc::Decision> WaterWiseScheduler::schedule(
    const std::vector<dc::PendingJob>& batch, const dc::ScheduleContext& ctx) {
  // Observability wrapper: spans and service-level histograms around the
  // untouched decision logic.  Everything recorded here is write-only —
  // nothing below reads a clock or a metric — so the decision stream is
  // byte-identical with tracing/metrics on or off.
  obs::Span span("sched.window");
  span.arg("t", ctx.now);
  span.arg("batch", batch.size());
  const util::Stopwatch watch;
  registry_.add(handles_.windows);
  registry_.observe(handles_.queue_depth, static_cast<double>(batch.size()));
  std::vector<dc::Decision> decisions = schedule_impl(batch, ctx);
  registry_.observe(handles_.decision_latency_s, watch.elapsed_seconds());
  span.arg("decisions", decisions.size());
  return decisions;
}

std::vector<dc::Decision> WaterWiseScheduler::schedule_impl(
    const std::vector<dc::PendingJob>& batch, const dc::ScheduleContext& ctx) {
  const int n = ctx.capacity->num_regions();
  // Lazily size the learner to the environment.
  if (!history_)
    history_ = std::make_unique<HistoryLearner>(n, config_.history_window);

  // Feed the history learner the current intensity landscape.
  {
    std::vector<double> ci(static_cast<std::size_t>(n));
    std::vector<double> wi(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      ci[static_cast<std::size_t>(r)] = ctx.env->carbon_intensity(r, ctx.now);
      wi[static_cast<std::size_t>(r)] = ctx.env->water_intensity(r, ctx.now);
    }
    history_->observe(ci, wi);
  }

  std::vector<int> caps(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    caps[static_cast<std::size_t>(r)] = ctx.capacity->free_at(r, ctx.now);
  // Degraded-mode state machine: observe this window, clamp faulty regions'
  // caps (serial — the machine is scheduler state, not chunk state).
  update_region_health(ctx, caps);
  int total_cap = 0;
  for (const int c : caps) total_cap += c;
  if (batch.empty()) return {};
  if (total_cap <= 0) {
    // Nothing placeable this window (e.g. a total outage): every pending
    // job is an explicit deferral, re-examined next window.
    registry_.add(handles_.deferred_jobs, batch.size());
    return {};
  }

  // Algorithm 1: oversubscription goes through the slack manager.
  std::vector<const dc::PendingJob*> selected;
  if (static_cast<int>(batch.size()) > total_cap && config_.enable_slack_manager) {
    const auto order = select_most_urgent(
        batch, ctx, static_cast<std::size_t>(total_cap));
    selected.reserve(order.size());
    for (const std::size_t i : order) selected.push_back(&batch[i]);
  } else {
    selected.reserve(batch.size());
    for (const auto& p : batch) selected.push_back(&p);
    if (static_cast<int>(selected.size()) > total_cap)
      selected.resize(static_cast<std::size_t>(total_cap));
  }
  // Jobs the slack manager (or cap truncation) left out defer explicitly.
  registry_.add(handles_.deferred_jobs,
                batch.size() - selected.size());

  // Plan -> solve -> commit: quota partition, pure per-chunk solves (fanned
  // across the pool when configured), deterministic in-order merge.
  std::vector<ChunkPlan> plans = plan_chunks(selected, caps);
  registry_.add(handles_.chunks_planned, plans.size());
  std::vector<ChunkResult> results(plans.size());
  // Exception safety across the fan-out: a throwing chunk solve records its
  // message in ChunkResult::error (never crosses the pool boundary raw);
  // commit() re-throws the lowest-index failure with chunk/window context.
  const auto guarded_solve = [&](std::size_t k) {
    try {
      results[k] = solve_one(plans[k], ctx);
    } catch (const std::exception& e) {
      results[k].index = plans[k].index;
      results[k].error = e.what();
    } catch (...) {
      results[k].index = plans[k].index;
      results[k].error = "unknown exception";
    }
  };
  const std::size_t threads = effective_solver_threads();
  if (threads > 1 && plans.size() > 1) {
    // Fan chunk solves onto the process-global work-stealing pool.  When
    // this window is itself a task on that pool (a campaign scenario), the
    // spawns land on the current worker's own deque and idle workers steal
    // them — one scheduler for both axes, no nested-pool oversubscription.
    // TaskGroup::wait() helps while waiting, so this thread executes
    // pending chunks instead of parking.  guarded_solve never throws
    // (errors land in ChunkResult::error), and commit() below merges in
    // chunk-index order, so steal interleavings cannot reach the outputs.
    util::WorkStealingPool& pool = util::WorkStealingPool::global();
    pool.ensure_workers(threads);
    const std::uint64_t stolen_before = pool.tasks_stolen();
    const std::uint64_t attempts_before = pool.steal_attempts();
    {
      util::TaskGroup group(pool);
      for (std::size_t k = 0; k < plans.size(); ++k)
        group.spawn([&guarded_solve, k] { guarded_solve(k); });
      registry_.set(handles_.pool_depth,
                    static_cast<double>(pool.queue_depth()));
      group.wait();
    }
    // Observational steal visibility: deltas include steals performed for
    // concurrently running scenarios, so these are never byte-compared.
    registry_.add(handles_.tasks_stolen, pool.tasks_stolen() - stolen_before);
    registry_.add(handles_.steal_attempts,
                  pool.steal_attempts() - attempts_before);
  } else {
    for (std::size_t k = 0; k < plans.size(); ++k) guarded_solve(k);
  }
  return commit(std::move(results), ctx);
}

void WaterWiseScheduler::update_region_health(const dc::ScheduleContext& ctx,
                                              std::vector<int>& caps) {
  if (!config_.degraded.enabled) return;
  const DegradedModeConfig& dm = config_.degraded;
  const int n = ctx.capacity->num_regions();
  health_.resize(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    RegionHealth& h = health_[static_cast<std::size_t>(r)];
    const int cap_now = ctx.capacity->capacity(r);
    const int prev_max = h.max_capacity_seen;
    h.max_capacity_seen = std::max(h.max_capacity_seen, cap_now);

    // Fault events this window: capacity below the best we have seen (an
    // outage or flap is eating servers), or an observed intensity jump too
    // steep for the smooth hourly-interpolated series (an injected forecast
    // bias stepping in or out).
    const bool capacity_reduced = prev_max > 0 && cap_now < prev_max;
    const bool outage = prev_max > 0 && cap_now <= 0;
    const double ci = ctx.env->carbon_intensity(r, ctx.now);
    const double wi = ctx.env->water_intensity(r, ctx.now);
    bool intensity_jump = false;
    if (h.has_obs && ctx.now - h.last_obs_time <= dm.flap_window_s) {
      const double ci_rel =
          std::abs(ci - h.last_ci) / std::max(std::abs(h.last_ci), 1e-9);
      const double wi_rel =
          std::abs(wi - h.last_wi) / std::max(std::abs(h.last_wi), 1e-9);
      intensity_jump = ci_rel > dm.intensity_jump_fraction ||
                       wi_rel > dm.intensity_jump_fraction;
    }
    h.last_ci = ci;
    h.last_wi = wi;
    h.last_obs_time = ctx.now;
    h.has_obs = true;

    const bool event = capacity_reduced || intensity_jump;
    if (event) {
      registry_.add(handles_.fault_events);
      h.event_score = std::min(h.event_score + 1, 1000);
      h.clean_windows = 0;
    } else {
      ++h.clean_windows;
    }

    ++h.windows_in_state;
    switch (h.state) {
      case RegionHealth::State::Normal:
        if (outage || h.event_score >= dm.degrade_after_events) {
          h.state = RegionHealth::State::Degraded;
          h.windows_in_state = 0;
        }
        break;
      case RegionHealth::State::Degraded:
        if (!event && !capacity_reduced &&
            h.clean_windows >= dm.recover_after_clean) {
          h.state = RegionHealth::State::Recovery;
          h.windows_in_state = 0;
          h.event_score = 0;
        }
        break;
      case RegionHealth::State::Recovery:
        if (event) {
          h.state = RegionHealth::State::Degraded;
          h.windows_in_state = 0;
        } else if (h.windows_in_state >= dm.recovery_windows) {
          h.state = RegionHealth::State::Normal;
          h.windows_in_state = 0;
        }
        break;
    }

    // Hard-cap safety rails: a Degraded region takes almost no new work; a
    // recovering one ramps back gradually instead of absorbing the whole
    // backlog the moment the fault clears.
    auto& cap_ref = caps[static_cast<std::size_t>(r)];
    if (h.state == RegionHealth::State::Degraded) {
      registry_.add(handles_.degraded_windows);
      cap_ref = std::min(
          cap_ref, static_cast<int>(std::floor(dm.degraded_cap_fraction *
                                               static_cast<double>(cap_now))));
    } else if (h.state == RegionHealth::State::Recovery) {
      cap_ref = std::min(
          cap_ref,
          std::max(1, static_cast<int>(std::floor(
                          dm.recovery_cap_fraction *
                          static_cast<double>(cap_now)))));
    }
  }
}

}  // namespace ww::core
