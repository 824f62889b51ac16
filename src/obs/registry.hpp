// Deterministic metrics registry: named counters, gauges, and
// quantile-capable histograms behind typed handles.
//
// Determinism contract (the reason this exists instead of a third-party
// metrics client): every exported artifact is reproducible given the same
// inputs.  Registration order defines handle ids; JSON export iterates
// name-ordered; thread-sharded accumulation happens in `Shard` objects that
// the *caller* folds back in a deterministic order (the scheduler commits
// chunk shards in chunk-index order, never completion order).  The registry
// itself is single-writer: registration and mutation happen on the owning
// thread, worker threads only ever touch their own Shard.
//
// Wall-clock derived samples (decision latency) are observational — they
// may differ run to run and are exported for humans, while counters and
// sim-time histograms (queue depth, time-to-admission) are byte-stable and
// safe to assert on in tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace ww::obs {

/// Typed handles: cheap value types resolved once at registration so hot
/// paths never do string lookups.  Default-constructed handles are invalid
/// and ignored by mutators (so optional instrumentation can stay unwired).
struct Counter {
  std::size_t id = static_cast<std::size_t>(-1);
  [[nodiscard]] bool valid() const noexcept {
    return id != static_cast<std::size_t>(-1);
  }
};
struct Gauge {
  std::size_t id = static_cast<std::size_t>(-1);
  [[nodiscard]] bool valid() const noexcept {
    return id != static_cast<std::size_t>(-1);
  }
};
struct Hist {
  std::size_t id = static_cast<std::size_t>(-1);
  [[nodiscard]] bool valid() const noexcept {
    return id != static_cast<std::size_t>(-1);
  }
};

class Registry;

/// Thread-local accumulation slice with the same counter/gauge/histogram
/// layout as the registry that minted it (`Registry::make_shard`).  A worker
/// fills its shard in isolation; the owner folds shards back with
/// `merge_shard` in a deterministic order.  Default-constructed shards are
/// empty and merge as no-ops, so carrying one in a result struct costs
/// nothing when unused.  Gauge slots are additive only (sums such as solver
/// wall-clock): a "last write wins" `set` has no merge, so shards offer none.
class Shard {
 public:
  Shard() = default;

  void add(Counter c, std::uint64_t delta = 1) noexcept;
  void add(Gauge g, double delta) noexcept;
  void observe(Hist h, double sample) noexcept;

  /// This shard's own accumulation so far (0 for handles it has no slot
  /// for), e.g. for per-chunk span annotations before the fold.
  [[nodiscard]] std::uint64_t counter_value(Counter c) const noexcept;

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && hists_.empty();
  }

 private:
  friend class Registry;
  std::vector<std::uint64_t> counters_;
  std::vector<double> gauges_;
  std::vector<util::Histogram> hists_;
};

class Registry {
 public:
  /// Register-or-lookup by name.  Re-registering an existing name returns
  /// the same handle; a histogram re-registered with a different layout
  /// throws (two call sites disagreeing on bins is a bug, not a merge).
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Hist histogram(const std::string& name, double lo, double hi,
                 std::size_t bins);

  void add(Counter c, std::uint64_t delta = 1) noexcept;
  void add(Gauge g, double delta) noexcept;
  void set(Gauge g, double value) noexcept;
  void observe(Hist h, double sample) noexcept;

  [[nodiscard]] std::uint64_t counter_value(Counter c) const;
  [[nodiscard]] double gauge_value(Gauge g) const;
  [[nodiscard]] const util::Histogram& hist(Hist h) const;

  /// Const lookups by name for consumers without handles (bench printers,
  /// tests); nullptr when the name was never registered.
  [[nodiscard]] const std::uint64_t* find_counter(
      const std::string& name) const;
  [[nodiscard]] const double* find_gauge(const std::string& name) const;
  [[nodiscard]] const util::Histogram* find_hist(const std::string& name) const;

  /// Empty shard whose slots mirror every counter/gauge/histogram registered
  /// so far (histograms copy their layout with zeroed bins).
  [[nodiscard]] Shard make_shard() const;
  /// Folds a shard's counts and gauge sums into the registry.  Counter and
  /// histogram folds are commutative and associative; gauge sums are double
  /// additions, which are not, so callers supply a *fixed* fold order
  /// (chunk index, scenario index) and get identical bytes from it.
  void merge_shard(const Shard& shard);

  /// Name-ordered JSON: counters and gauges as flat maps, histograms with
  /// layout, totals, p50/p95/p99 (util::Histogram::quantile), and bin
  /// counts.  Deterministic given deterministic values.
  void write_json(std::ostream& out) const;
  [[nodiscard]] std::string to_json() const;

  /// Zeroes all values; names and handles stay registered.
  void reset_values() noexcept;

 private:
  std::map<std::string, std::size_t> counter_ids_;
  std::map<std::string, std::size_t> gauge_ids_;
  std::map<std::string, std::size_t> hist_ids_;
  std::vector<std::uint64_t> counters_;
  std::vector<double> gauges_;
  std::vector<util::Histogram> hists_;
};

}  // namespace ww::obs
