#include "profile.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Pointer just past `key` in [pos, end) of the line, or nullptr.
const char* after(const char* pos, const char* end, const char* key) {
  const std::size_t n = std::strlen(key);
  for (const char* p = pos; p + n <= end; ++p)
    if (std::memcmp(p, key, n) == 0) return p + n;
  return nullptr;
}

struct Frame {
  std::string name;
  std::int64_t begin_us = 0;
  std::int64_t child_us = 0;
};

}  // namespace

Profile profile_chrome_trace(const std::string& json) {
  Profile profile;
  std::map<std::int64_t, std::vector<Frame>> stacks;  // by tid
  std::size_t line_start = 0;
  while (line_start < json.size()) {
    std::size_t line_end = json.find('\n', line_start);
    if (line_end == std::string::npos) line_end = json.size();
    const char* begin = json.data() + line_start;
    const char* end = json.data() + line_end;
    line_start = line_end + 1;

    const char* name = after(begin, end, "{\"name\": \"");
    if (name == nullptr) continue;  // header / footer line
    const char* name_end = name;
    while (name_end < end && *name_end != '"') ++name_end;
    const char* ph = after(name_end, end, "\"ph\": \"");
    const char* ts = after(name_end, end, "\"ts\": ");
    const char* tid = after(name_end, end, "\"tid\": ");
    if (ph == nullptr || ts == nullptr || tid == nullptr)
      throw std::runtime_error("trace event without ph/ts/tid: " +
                               std::string(begin, end));
    const std::int64_t ts_us = std::strtoll(ts, nullptr, 10);
    auto& stack = stacks[std::strtoll(tid, nullptr, 10)];
    std::string span_name(name, name_end);
    if (*ph == 'B') {
      stack.push_back(Frame{std::move(span_name), ts_us, 0});
      continue;
    }
    if (*ph != 'E')
      throw std::runtime_error("unexpected trace phase in: " +
                               std::string(begin, end));
    if (stack.empty() || stack.back().name != span_name)
      throw std::runtime_error("unbalanced trace: end of '" + span_name +
                               "' does not close the innermost open span");
    const Frame frame = std::move(stack.back());
    stack.pop_back();
    const std::int64_t dur = ts_us - frame.begin_us;
    SpanTotals& t = profile[frame.name];
    ++t.count;
    t.inclusive_s += static_cast<double>(dur) * 1e-6;
    t.self_s += static_cast<double>(dur - frame.child_us) * 1e-6;
    if (!stack.empty()) stack.back().child_us += dur;
  }
  for (const auto& [tid, stack] : stacks)
    if (!stack.empty())
      throw std::runtime_error("unbalanced trace: span '" + stack.back().name +
                               "' never ended");
  return profile;
}

SpanTotals totals(const Profile& profile, const std::string& name) {
  const auto it = profile.find(name);
  return it == profile.end() ? SpanTotals{} : it->second;
}

void write_combined_trace(const std::string& path,
                          const std::vector<SpanRecord>& spans,
                          std::int64_t origin_ns,
                          const std::string& program_json) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& s : spans) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\": \"" << s.name << "\", \"ph\": \"X\", \"ts\": "
        << static_cast<double>(s.begin_ns - origin_ns) * 1e-3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.begin_ns) * 1e-3
        << ", \"pid\": 2, \"tid\": 0}";
  }
  // Splice in the program's events: everything between its array brackets.
  const std::size_t open = program_json.find('[');
  const std::size_t close = program_json.rfind(']');
  if (open != std::string::npos && close != std::string::npos && close > open) {
    const std::string events = program_json.substr(open + 1, close - open - 1);
    if (events.find('{') != std::string::npos) {
      const std::size_t lead = events.find('{');
      out << (first ? "\n" : ",\n") << events.substr(lead);
    }
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace perfbench
