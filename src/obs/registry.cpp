#include "obs/registry.hpp"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ww::obs {

namespace {

/// Round-trip double formatting so exported metrics re-parse exactly;
/// integral values print without an exponent for readability.
void write_double(std::ostream& out, double v) {
  std::ostringstream buf;
  buf.precision(std::numeric_limits<double>::max_digits10);
  buf << v;
  out << buf.str();
}

/// Metric names are code-controlled identifiers (dots, brackets, ascii), so
/// escaping only needs to cover the JSON-breaking characters.
void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

void Shard::add(Counter c, std::uint64_t delta) noexcept {
  if (!c.valid() || c.id >= counters_.size()) return;
  counters_[c.id] += delta;
}

void Shard::add(Gauge g, double delta) noexcept {
  if (!g.valid() || g.id >= gauges_.size()) return;
  gauges_[g.id] += delta;
}

std::uint64_t Shard::counter_value(Counter c) const noexcept {
  return c.valid() && c.id < counters_.size() ? counters_[c.id] : 0;
}

void Shard::observe(Hist h, double sample) noexcept {
  if (!h.valid() || h.id >= hists_.size()) return;
  hists_[h.id].add(sample);
}

Counter Registry::counter(const std::string& name) {
  const auto it = counter_ids_.find(name);
  if (it != counter_ids_.end()) return Counter{it->second};
  const std::size_t id = counters_.size();
  counters_.push_back(0);
  counter_ids_.emplace(name, id);
  return Counter{id};
}

Gauge Registry::gauge(const std::string& name) {
  const auto it = gauge_ids_.find(name);
  if (it != gauge_ids_.end()) return Gauge{it->second};
  const std::size_t id = gauges_.size();
  gauges_.push_back(0.0);
  gauge_ids_.emplace(name, id);
  return Gauge{id};
}

Hist Registry::histogram(const std::string& name, double lo, double hi,
                         std::size_t bins) {
  const auto it = hist_ids_.find(name);
  if (it != hist_ids_.end()) {
    const util::Histogram& h = hists_[it->second];
    if (h.lo() != lo || h.hi() != hi || h.bins() != bins)
      throw std::invalid_argument(
          "Registry::histogram: '" + name +
          "' re-registered with a different layout");
    return Hist{it->second};
  }
  const std::size_t id = hists_.size();
  hists_.emplace_back(lo, hi, bins);
  hist_ids_.emplace(name, id);
  return Hist{id};
}

void Registry::add(Counter c, std::uint64_t delta) noexcept {
  if (!c.valid() || c.id >= counters_.size()) return;
  counters_[c.id] += delta;
}

void Registry::add(Gauge g, double delta) noexcept {
  if (!g.valid() || g.id >= gauges_.size()) return;
  gauges_[g.id] += delta;
}

void Registry::set(Gauge g, double value) noexcept {
  if (!g.valid() || g.id >= gauges_.size()) return;
  gauges_[g.id] = value;
}

void Registry::observe(Hist h, double sample) noexcept {
  if (!h.valid() || h.id >= hists_.size()) return;
  hists_[h.id].add(sample);
}

std::uint64_t Registry::counter_value(Counter c) const {
  return counters_.at(c.id);
}

double Registry::gauge_value(Gauge g) const { return gauges_.at(g.id); }

const util::Histogram& Registry::hist(Hist h) const { return hists_.at(h.id); }

const std::uint64_t* Registry::find_counter(const std::string& name) const {
  const auto it = counter_ids_.find(name);
  return it == counter_ids_.end() ? nullptr : &counters_[it->second];
}

const double* Registry::find_gauge(const std::string& name) const {
  const auto it = gauge_ids_.find(name);
  return it == gauge_ids_.end() ? nullptr : &gauges_[it->second];
}

const util::Histogram* Registry::find_hist(const std::string& name) const {
  const auto it = hist_ids_.find(name);
  return it == hist_ids_.end() ? nullptr : &hists_[it->second];
}

Shard Registry::make_shard() const {
  Shard shard;
  shard.counters_.assign(counters_.size(), 0);
  shard.gauges_.assign(gauges_.size(), 0.0);
  shard.hists_.reserve(hists_.size());
  for (const util::Histogram& h : hists_)
    shard.hists_.emplace_back(h.lo(), h.hi(), h.bins());
  return shard;
}

void Registry::merge_shard(const Shard& shard) {
  // A shard minted before later registrations is shorter than the registry;
  // the missing tail slots simply contribute nothing.
  const std::size_t nc = std::min(shard.counters_.size(), counters_.size());
  for (std::size_t i = 0; i < nc; ++i) counters_[i] += shard.counters_[i];
  const std::size_t ng = std::min(shard.gauges_.size(), gauges_.size());
  for (std::size_t i = 0; i < ng; ++i) gauges_[i] += shard.gauges_[i];
  const std::size_t nh = std::min(shard.hists_.size(), hists_.size());
  for (std::size_t i = 0; i < nh; ++i) hists_[i].merge(shard.hists_[i]);
}

void Registry::write_json(std::ostream& out) const {
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, id] : counter_ids_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(out, name);
    out << ": " << counters_[id];
  }
  out << (first ? "},\n" : "\n  },\n");

  out << "  \"gauges\": {";
  first = true;
  for (const auto& [name, id] : gauge_ids_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(out, name);
    out << ": ";
    write_double(out, gauges_[id]);
  }
  out << (first ? "},\n" : "\n  },\n");

  out << "  \"histograms\": {";
  first = true;
  for (const auto& [name, id] : hist_ids_) {
    const util::Histogram& h = hists_[id];
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_json_string(out, name);
    out << ": {\"lo\": ";
    write_double(out, h.lo());
    out << ", \"hi\": ";
    write_double(out, h.hi());
    out << ", \"total\": " << h.total() << ", \"dropped\": " << h.dropped();
    out << ", \"p50\": ";
    write_double(out, h.quantile(0.50));
    out << ", \"p95\": ";
    write_double(out, h.quantile(0.95));
    out << ", \"p99\": ";
    write_double(out, h.quantile(0.99));
    out << ", \"counts\": [";
    for (std::size_t i = 0; i < h.bins(); ++i) {
      if (i != 0) out << ", ";
      out << h.bin_count(i);
    }
    out << "]}";
  }
  out << (first ? "}\n" : "\n  }\n") << "}\n";
}

std::string Registry::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

void Registry::reset_values() noexcept {
  for (auto& c : counters_) c = 0;
  for (auto& g : gauges_) g = 0.0;
  for (auto& h : hists_) h = util::Histogram(h.lo(), h.hi(), h.bins());
}

}  // namespace ww::obs
