// WaterWise: the carbon- and water-footprint co-optimizing scheduler
// (the paper's primary contribution, Sec. 4).
//
// Every batch window, the Decision Controller builds the MILP of Eq. 8-11
// over all pending jobs and the current (not future) carbon/water intensity
// of every region:
//
//   min sum_mn x_mn [ l_CO2 * CO2(m,n)/CO2max_m + l_H2O * H2O(m,n)/H2Omax_m
//                     + l_ref (l_CO2 * CO2ref_n + l_H2O * H2Oref_n) ]
//   s.t.  sum_n x_mn = 1          (every selected job placed once, Eq. 9)
//         sum_m x_mn <= cap(n)    (region capacity, Eq. 10)
//         sum_n x_mn L_mn <= max(0, TOL * t_m - waited_m)   (Eq. 11)
//
// Algorithm 1 wraps the solver: when pending jobs exceed total capacity the
// slack manager (Eq. 14) picks the most-urgent subset and the relaxed model
// runs; when the hard model is infeasible the delay constraint is softened
// with penalty variables P_m entering the objective at weight sigma
// (Eq. 12-13).  Estimates of execution time and energy come from the online
// means the simulator learns — the controller never sees true per-job values.
//
// ## The plan -> solve -> commit pipeline
//
// Batches larger than `max_jobs_per_solve` decompose into independent chunk
// MILPs.  Chunk solves are structured as a three-stage pipeline so they can
// fan out across the process-global work-stealing pool
// (`util::WorkStealingPool::global()`) without any shared mutable state:
//
//   1. `plan_chunks()` partitions the window's remaining capacity into
//      per-chunk quotas up front (proportional largest-remainder per region,
//      repaired so every chunk's quota covers its job count).  Quotas are
//      disjoint by construction, so concurrent chunks can never double-book
//      a region.
//   2. `solve_one()` is `const` and side-effect-free: it builds, presolves
//      and branch-and-bounds one chunk against its private quota and returns
//      a self-contained `ChunkResult` (decisions, an `obs::Shard` of
//      counter deltas, leftover quota, spill-eligible jobs).  Pure per-chunk
//      work is what makes the fan-out sound at any thread count.
//   3. `commit()` merges results in chunk-index order — the only stage that
//      touches scheduler state — returns unused quota to a spill pool, and
//      re-solves any spill-eligible remainder serially against that pool.
//
// Determinism contract: each `ChunkResult` is a pure function of its
// `ChunkPlan` (the solver itself is deterministic and keeps no global
// state), and the commit order is the chunk index, never completion order.
// Decision streams and campaign aggregates are therefore byte-identical for
// every `solver_threads` value and under any steal interleaving of the
// shared pool; tests/core_scheduler_parallel_test.cpp,
// bench_fig8/11/12's equivalence check, and bench_fig13's startup
// self-check enforce it.  Work stealing is observable only through the
// `pool.*` registry entries (tasks_stolen / steal_attempts counters and a
// queue_depth gauge), which — like decision latency — are observational and
// excluded from byte-identity comparisons.
//
// Knobs: `WaterWiseConfig::solver_threads` (1 = serial, 0 = all cores) and
// the `WW_SCHED_THREADS` environment switch, which overrides the config
// process-wide (mirroring `WW_PRESOLVE` / `WW_REFACTOR_EVERY_PIVOT`).
//
// ## Graceful degradation
//
// Chunk solves run a bounded retry-then-degrade ladder instead of a single
// hard->soft fallback: pre-pass -> hard probe -> (soft model) -> one retry
// with relaxed node/iteration budgets -> guaranteed-feasible greedy
// placement inside the chunk quota -> explicit deferral.  The pre-pass is
// the hard model's singleton-row presolve done before any model exists: a
// job whose only admissible region (quota left, latency within allowance)
// is forced there.  When every job is forced and the forced jobs fit the
// quota, that is the hard model's only feasible point and the chunk is
// placed with no solve (`sched.forced_chunks`); when a job has no
// admissible region or forced jobs overflow a quota, the hard model is
// infeasible and its build is skipped.  Every rung reads one per-chunk
// pricing table (`ChunkPricing`: delay allowance and penalty rate per job;
// transfer latency, exceedance and Eq. 8 coefficient per (job, region)
// pair; the fallback's intensity cost per region), so no rung re-prices a
// pair; the costs are filled only when a rung past the pre-pass needs
// them.  Every rung is deterministic — budgets are node/iteration counts,
// never wall-clock — and every job ends placed or counted in the
// `sched.deferred_jobs` registry counter; nothing is silently dropped.  An
// injected failure discards the pre-pass's answer as it would a solve's.
// A per-region Normal -> Degraded -> Recovery state machine
// (DegradedModeConfig) watches capacity losses and observed intensity jumps
// and clamps how much of a faulty region's capacity new placements may
// claim.  `WW_FAULT_SOLVES` injects deterministic solve failures
// (env::injected_solve_failure) to exercise the ladder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/history.hpp"
#include "dc/scheduler.hpp"
#include "milp/branch_and_bound.hpp"
#include "obs/registry.hpp"
#include "util/work_steal.hpp"

namespace ww::core {

/// Probability in [0, 1] that a chunk solve outcome is discarded as an
/// injected fault, from the `WW_FAULT_SOLVES` environment switch (unset or
/// unparsable = 0, i.e. no injection).  Cached once per process, mirroring
/// WW_SCHED_THREADS: fault campaigns are a process property.
[[nodiscard]] double default_solve_failure_rate() noexcept;

/// Per-region Normal -> Degraded -> Recovery state machine thresholds.
/// All triggers are event counts over batch windows — never wall-clock — so
/// the machine's trajectory is a pure function of the decision stream.
struct DegradedModeConfig {
  bool enabled = true;
  /// Observed carbon/water intensity change (relative) between consecutive
  /// observations <= flap_window_s apart that counts as a fault event.  The
  /// builtin environment series are hourly-interpolated and move far less
  /// than this across 60 s batch ticks, so only injected bias steps fire it.
  double intensity_jump_fraction = 0.4;
  double flap_window_s = 900.0;  ///< Max spacing for a jump comparison.
  int degrade_after_events = 2;  ///< Event score that trips Normal->Degraded.
  int recover_after_clean = 3;   ///< Clean windows before Degraded->Recovery.
  int recovery_windows = 3;      ///< Recovery windows before Normal.
  /// Hard-cap safety rails: fraction of a region's current capacity new
  /// placements may claim while Degraded / in Recovery.
  double degraded_cap_fraction = 0.25;
  double recovery_cap_fraction = 0.5;
};

struct WaterWiseConfig {
  double lambda_co2 = 0.5;   ///< Carbon objective weight (Fig. 8 sweeps it).
  double lambda_h2o = 0.5;   ///< Water objective weight.
  double lambda_ref = 0.1;   ///< History-learner weight (paper default).
  int history_window = 10;   ///< History-learner window (paper default).
  /// Sec. 7 extensions (default off = exact paper objective):
  /// additional additive objective terms for electricity cost and
  /// performance (normalized transfer-induced service-time stretch).
  double lambda_cost = 0.0;
  double lambda_perf = 0.0;
  double sigma = 10.0;       ///< Soft-constraint penalty weight (Eq. 12).
  /// Safety factor on the estimated execution time inside the delay rows
  /// (Eq. 11): the controller only knows *mean* estimates, so it reserves
  /// headroom against jobs that run shorter than their estimate.  1.0
  /// trusts the estimate fully (more remote moves, more violations).
  double delay_estimate_margin = 0.8;
  bool enable_soft_constraints = true;  ///< Ablation knob.
  bool enable_slack_manager = true;     ///< Ablation knob.
  bool enable_history = true;           ///< Ablation knob.
  int max_jobs_per_solve = 400;  ///< Chunk very large batches for the solver.
  /// Threads for the chunk MILP solves inside one batch window (the plan ->
  /// solve -> commit pipeline): 1 = serial, 0 = all cores, N = fixed pool.
  /// Results are byte-identical at every setting; the WW_SCHED_THREADS
  /// environment switch overrides this process-wide.
  int solver_threads = 1;
  /// Degraded-mode state machine (see DegradedModeConfig).
  DegradedModeConfig degraded;
  /// Injected solve-failure probability (WW_FAULT_SOLVES); each discarded
  /// outcome is a deterministic function of (fault_seed, window, chunk,
  /// attempt) — see env::injected_solve_failure — so fault campaigns are
  /// byte-identical at every thread count.
  double solve_failure_rate = default_solve_failure_rate();
  std::uint64_t fault_seed = 0x57415457ULL;  ///< Stream id for injection.
  /// Node/iteration budget multiplier for the ladder's retry rung.
  long retry_budget_multiplier = 8;
  /// Convenience gate for span tracing: constructing a scheduler with this
  /// set enables the process-wide obs::Trace (equivalent to WW_TRACE=1 /
  /// --trace-out without a custom path).  Tracing is observational only —
  /// decision streams are byte-identical with it on or off.
  bool trace = false;
  /// Test hook, called with the chunk index before each chunk solve; lets
  /// tests inject exceptions into the pooled fan-out.  Must be thread-safe.
  std::function<void(int)> chunk_solve_hook;
  milp::SolverOptions solver = [] {
    milp::SolverOptions o;
    // Scheduling batches must decide quickly; a best-incumbent answer at
    // the budget is still a valid (near-optimal) placement, and placements
    // within 0.01% of each other are operationally identical.  The budget
    // is a node count — deterministic at any machine speed or thread count
    // — never a wall-clock limit (see tools/lint_determinism.py).
    o.max_nodes = 20000;
    o.mip_gap_rel = 1e-4;
    return o;
  }();
};

/// One chunk's share of a batch window: the jobs it must decide and the
/// per-region capacity quota reserved exclusively for it.  Quotas of the
/// plans returned by one `plan_chunks()` call are disjoint and sum to the
/// window's capacity, so no two chunks can place into the same server slot.
struct ChunkPlan {
  int index = 0;  ///< Commit order; chunk 0 holds the most-urgent jobs.
  std::vector<const dc::PendingJob*> jobs;
  std::vector<int> quota;  ///< Per-region slots this chunk alone may use.
};

/// Self-contained outcome of one pure chunk solve: everything `commit()`
/// needs, nothing shared with any other chunk.
struct ChunkResult {
  int index = 0;
  std::vector<dc::Decision> decisions;
  /// Quota slots the solve did not consume; returned to the spill pool.
  std::vector<int> leftover;
  /// Jobs the chunk could not place (solver budget exhausted, or the
  /// soft-disabled ablation hit an infeasible hard model): eligible for one
  /// serial spill re-solve against the pooled leftover quota.
  std::vector<const dc::PendingJob*> unplaced;
  /// Per-chunk registry slice: the solver and retry-ladder counters, the
  /// solve/presolve wall-clock sums, and the service histograms observed
  /// during the solve (time-to-admission per placed job).  Filled in
  /// isolation by the worker, folded by commit() in chunk-index order so
  /// registry bytes are identical at every thread count.
  obs::Shard shard;
  /// Non-empty when the chunk solve threw: commit() re-throws fail-fast with
  /// this message plus chunk/window context, lowest chunk index first, so an
  /// exception inside the pooled fan-out can never be swallowed.
  std::string error;
};

class WaterWiseScheduler final : public dc::Scheduler {
 public:
  explicit WaterWiseScheduler(WaterWiseConfig config = {});

  [[nodiscard]] std::string name() const override { return "WaterWise"; }

  [[nodiscard]] std::vector<dc::Decision> schedule(
      const std::vector<dc::PendingJob>& batch,
      const dc::ScheduleContext& ctx) override;

  [[nodiscard]] const WaterWiseConfig& config() const noexcept {
    return config_;
  }
  /// The scheduler's metrics registry and the only store of its
  /// diagnostics: the lifetime solver and retry-ladder counters under
  /// "sched.*" (how many MILPs ran, how big the trees were, how much the
  /// warm-start path covered — the Fig. 13 overhead attribution), the
  /// solve/presolve wall-clock gauges, and the service-level distributions
  /// under "service.*" (decision-latency seconds per window, queue depth per
  /// window, time-to-admission seconds per placed job).  Counters and
  /// sim-time histograms are deterministic; the wall-clock entries are
  /// observational only.
  [[nodiscard]] const obs::Registry& registry() const noexcept {
    return registry_;
  }

  /// Thread count the chunk fan-out actually uses: WW_SCHED_THREADS when
  /// set, else config().solver_threads, with 0 resolving to all cores.
  [[nodiscard]] std::size_t effective_solver_threads() const noexcept;

  // --- The plan -> solve -> commit pipeline (public for tests/benches). ---

  /// Stage 1: splits `selected` (already urgency-ordered and capped at the
  /// window's total capacity) into chunks of at most max_jobs_per_solve and
  /// partitions `caps` into disjoint per-chunk quotas.  Each region is
  /// apportioned proportionally to chunk sizes (largest remainder, ties to
  /// the lower chunk index), then repaired so every chunk's quota total
  /// covers its job count.  Pure: depends only on the arguments and config.
  [[nodiscard]] std::vector<ChunkPlan> plan_chunks(
      const std::vector<const dc::PendingJob*>& selected,
      const std::vector<int>& caps) const;

  /// Stage 2: solves one chunk against its private quota (the pre-pass,
  /// the hard model, then the Algorithm-1 soft fallback; see "Graceful
  /// degradation") and extracts decisions.  Const and
  /// side-effect-free — safe to run concurrently for different plans; all
  /// diagnostics land in the returned ChunkResult's shard.
  [[nodiscard]] ChunkResult solve_one(const ChunkPlan& plan,
                                      const dc::ScheduleContext& ctx) const;

  /// Stage 3: merges results in chunk-index order (decisions, shards),
  /// pools leftover quota, and re-solves spill-eligible jobs serially
  /// against the pool.  The only stage that mutates scheduler state.
  [[nodiscard]] std::vector<dc::Decision> commit(
      std::vector<ChunkResult>&& results, const dc::ScheduleContext& ctx);

 private:
  /// One chunk's prices (defined in waterwise.cpp): a pure function of the
  /// plan, the context, the config and the history learner, read by the
  /// pre-pass, every rung of the ladder and both greedies.  Filled in two
  /// stages.  `price_chunk` always runs: per job the delay allowance and
  /// penalty rate, per (job, region) pair the transfer latency and the
  /// exceedance — all the hard rung's pre-pass reads.  `cost_chunk` fills
  /// the Eq. 8 coefficients and the fallback's region costs the first time
  /// a rung needs them, so a chunk the pre-pass decides never prices a
  /// footprint.
  struct ChunkPricing;
  [[nodiscard]] ChunkPricing price_chunk(const ChunkPlan& plan,
                                         const dc::ScheduleContext& ctx) const;
  void cost_chunk(const ChunkPlan& plan, const dc::ScheduleContext& ctx,
                  ChunkPricing& price) const;

  /// Builds and solves Eq. 8-13 for `plan` from its costed pricing table:
  /// the hard model (`soft` false) fixes x_mn = 0 for every pair whose
  /// latency exceeds the job's allowance, the soft model adds one penalty
  /// row per such pair.  Only chunks the pre-pass leaves open reach the
  /// hard model here.  `budget_scale` multiplies the node/iteration
  /// budgets (saturating) for the ladder's retry rung.  Solver counters
  /// accumulate into `shard`.
  [[nodiscard]] milp::Solution run_model(const ChunkPlan& plan,
                                         const ChunkPricing& price, bool soft,
                                         long budget_scale,
                                         obs::Shard& shard) const;

  /// Counts one milp::solve outcome into a chunk shard.
  void add_solve(const milp::Solution& sol, obs::Shard& shard) const;

  /// Per-region degraded-mode state (see DegradedModeConfig).  Updated once
  /// per batch window, serially, before the chunk fan-out.
  struct RegionHealth {
    enum class State { Normal, Degraded, Recovery };
    State state = State::Normal;
    int event_score = 0;     ///< Recent fault events (saturating).
    int clean_windows = 0;   ///< Consecutive event-free windows.
    int windows_in_state = 0;
    int max_capacity_seen = 0;
    double last_ci = 0.0;    ///< Last observed carbon intensity.
    double last_wi = 0.0;    ///< Last observed water intensity.
    double last_obs_time = -1.0;
    bool has_obs = false;
  };

  /// Advances every region's state machine on this window's observations
  /// (capacity losses, intensity jumps) and applies the Degraded/Recovery
  /// hard-cap rails to `caps` in place.
  void update_region_health(const dc::ScheduleContext& ctx,
                            std::vector<int>& caps);

  /// schedule() minus the observability wrapper (spans, latency/queue
  /// histograms); keeps the decision logic free of instrumentation.
  [[nodiscard]] std::vector<dc::Decision> schedule_impl(
      const std::vector<dc::PendingJob>& batch, const dc::ScheduleContext& ctx);

  /// Typed registry handles, resolved once at construction so the hot path
  /// never does string lookups: the "sched.*" counters and wall-clock
  /// gauges, plus the service-level histograms.
  struct Handles {
    obs::Counter milp_solves, soft_fallbacks, nodes_explored;
    obs::Counter simplex_iterations, warm_started_nodes, phase1_nodes;
    obs::Counter refactorizations, ft_updates, seeded_incumbents;
    obs::Counter presolve_rows_removed, presolve_cols_removed;
    obs::Counter presolve_nonzeros_removed;
    obs::Counter chunks_planned, spill_jobs, spill_resolves;
    obs::Counter fault_events, degraded_windows, solve_retries;
    obs::Counter fallback_placements, deferred_jobs, forced_chunks, windows;
    obs::Gauge presolve_seconds, solve_seconds;
    obs::Hist decision_latency_s, queue_depth, time_to_admission_s;
    /// Work-stealing visibility (observational, like decision_latency_s:
    /// steal interleavings vary run to run and are never byte-compared).
    obs::Counter tasks_stolen, steal_attempts;
    obs::Gauge pool_depth;
  };
  void register_metrics();

  WaterWiseConfig config_;
  std::unique_ptr<HistoryLearner> history_;
  obs::Registry registry_;
  Handles handles_;
  std::vector<RegionHealth> health_;
  // No scheduler-local pool: multi-chunk windows fan out on the process
  // global util::WorkStealingPool, so campaign scenario tasks and chunk
  // subtasks share one set of workers (no nested-pool oversubscription).
};

}  // namespace ww::core
