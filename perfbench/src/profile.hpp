// Per-span-name time totals from the program's own obs::Trace spans.
//
// The traced run switches on the spans the library already emits
// (milp.lp, milp.presolve, milp.solve, sched.chunk_solve, sched.commit,
// sim.apply, ...) and reads them back from the Chrome trace-event JSON that
// obs::Trace exports.  A span's self time is its duration minus the part
// covered by its direct children on the same thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probe.hpp"

namespace perfbench {

struct SpanTotals {
  std::int64_t count = 0;
  double inclusive_s = 0.0;
  double self_s = 0.0;
};

using Profile = std::map<std::string, SpanTotals>;

/// Parses obs::Trace::write_chrome_json output (one event per line, 'B'/'E'
/// pairs nested per tid).  Throws std::runtime_error on an unbalanced or
/// malformed trace.
[[nodiscard]] Profile profile_chrome_trace(const std::string& json);

/// Totals for `name`; zeros when the span never occurred.
[[nodiscard]] SpanTotals totals(const Profile& profile,
                                const std::string& name);

/// Writes one Chrome trace holding the benchmark's own spans (pid 2, as
/// complete events, with timestamps relative to `origin_ns`) followed by the
/// program's obs::Trace events (`program_json`, whose timestamps start at
/// the same origin).
void write_combined_trace(const std::string& path,
                          const std::vector<SpanRecord>& spans,
                          std::int64_t origin_ns,
                          const std::string& program_json);

}  // namespace perfbench
