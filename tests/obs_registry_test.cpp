#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ww::obs {
namespace {

TEST(Registry, RegisterOrLookupReturnsStableHandles) {
  Registry r;
  const Counter a = r.counter("a");
  const Counter b = r.counter("b");
  EXPECT_NE(a.id, b.id);
  EXPECT_EQ(r.counter("a").id, a.id);  // same name, same handle
  const Hist h = r.histogram("h", 0.0, 1.0, 4);
  EXPECT_EQ(r.histogram("h", 0.0, 1.0, 4).id, h.id);
}

TEST(Registry, HistogramRelayoutThrows) {
  Registry r;
  (void)r.histogram("h", 0.0, 1.0, 4);
  EXPECT_THROW((void)r.histogram("h", 0.0, 1.0, 8), std::invalid_argument);
  EXPECT_THROW((void)r.histogram("h", 0.0, 2.0, 4), std::invalid_argument);
}

TEST(Registry, InvalidHandlesAreIgnored) {
  // Default-constructed handles let optional instrumentation stay unwired:
  // mutators must be silent no-ops, never UB.
  Registry r;
  const Counter c = r.counter("c");
  r.add(Counter{});
  r.add(Gauge{}, 1.0);
  r.set(Gauge{}, 1.0);
  r.observe(Hist{}, 1.0);
  Shard shard = r.make_shard();
  shard.add(Counter{});
  shard.add(Gauge{}, 1.0);
  shard.observe(Hist{}, 1.0);
  EXPECT_EQ(shard.counter_value(Counter{}), 0u);
  r.merge_shard(shard);
  EXPECT_EQ(r.counter_value(c), 0u);
}

TEST(Registry, ShardFoldOrderIndependent) {
  // Counter adds and histogram observes are commutative and associative,
  // so folding shards in any fixed order yields identical bytes — the
  // property the scheduler's chunk-index-ordered commit relies on.  Gauge
  // slots sum doubles; the quarter-steps here are exact in binary, so their
  // sums are order-free too (in general the fixed order is what makes them
  // byte-stable).
  const auto run = [](const std::vector<int>& order) {
    Registry r;
    const Counter c = r.counter("solves");
    const Gauge g = r.gauge("seconds");
    const Hist h = r.histogram("depth", 0.0, 100.0, 10);
    std::vector<Shard> shards;
    for (int k = 0; k < 4; ++k) {
      Shard s = r.make_shard();
      for (int i = 0; i <= k; ++i) {
        s.add(c);
        s.add(g, 0.25 * (i + 1));
        s.observe(h, 10.0 * k + i);
      }
      EXPECT_EQ(s.counter_value(c), static_cast<std::uint64_t>(k + 1));
      shards.push_back(std::move(s));
    }
    for (const int i : order) r.merge_shard(shards[i]);
    EXPECT_EQ(r.counter_value(c), 10u);
    EXPECT_EQ(r.gauge_value(g), 5.0);  // 0.25 * (1 + 3 + 6 + 10)
    return r.to_json();
  };
  const std::string forward = run({0, 1, 2, 3});
  EXPECT_EQ(forward, run({3, 2, 1, 0}));
  EXPECT_EQ(forward, run({2, 0, 3, 1}));
}

TEST(Registry, ShardMintedEarlyMergesSafely) {
  // A shard minted before later registrations is shorter than the
  // registry; merging it must not touch the newer slots.
  Registry r;
  const Counter c0 = r.counter("early");
  const Gauge g0 = r.gauge("early_s");
  Shard shard = r.make_shard();
  shard.add(c0, 5);
  shard.add(g0, 0.5);
  const Counter c1 = r.counter("late");
  const Gauge g1 = r.gauge("late_s");
  shard.add(c1, 3);    // no slot in this shard: ignored
  shard.add(g1, 1.0);  // likewise
  r.merge_shard(shard);
  EXPECT_EQ(r.counter_value(c0), 5u);
  EXPECT_EQ(r.counter_value(c1), 0u);
  EXPECT_EQ(r.gauge_value(g0), 0.5);
  EXPECT_EQ(r.gauge_value(g1), 0.0);
}

TEST(Registry, JsonIsNameOrderedAndParseable) {
  Registry r;
  r.add(r.counter("z.last"), 2);
  r.add(r.counter("a.first"), 1);
  r.set(r.gauge("g"), 1.5);
  r.observe(r.histogram("h", 0.0, 10.0, 10), 3.5);
  const std::string json = r.to_json();
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
  // Same values => same bytes: the export is deterministic.
  EXPECT_EQ(json, r.to_json());
}

TEST(Registry, FindByNameAndReset) {
  Registry r;
  const Counter c = r.counter("c");
  const Hist h = r.histogram("h", 0.0, 1.0, 2);
  const Gauge g = r.gauge("g");
  r.add(c, 7);
  r.add(g, 2.5);
  r.observe(h, 0.25);
  ASSERT_NE(r.find_counter("c"), nullptr);
  EXPECT_EQ(*r.find_counter("c"), 7u);
  ASSERT_NE(r.find_gauge("g"), nullptr);
  EXPECT_EQ(*r.find_gauge("g"), 2.5);
  EXPECT_EQ(r.find_gauge("missing"), nullptr);
  ASSERT_NE(r.find_hist("h"), nullptr);
  EXPECT_EQ(r.find_hist("h")->total(), 1u);
  EXPECT_EQ(r.find_counter("missing"), nullptr);
  EXPECT_EQ(r.find_hist("missing"), nullptr);
  r.reset_values();
  EXPECT_EQ(r.counter_value(c), 0u);  // handles survive the reset
  EXPECT_EQ(r.gauge_value(g), 0.0);
  EXPECT_EQ(r.hist(h).total(), 0u);
}

}  // namespace
}  // namespace ww::obs
