#include "env/environment.hpp"

#include <cmath>
#include <stdexcept>

namespace ww::env {

Environment::Environment(std::vector<RegionSpec> specs,
                         EnvironmentConfig config)
    : config_(config) {
  if (specs.empty())
    throw std::invalid_argument("Environment: need at least one region");
  const int horizon_hours = config_.horizon_days * 24;
  const util::Rng root(config_.seed);

  std::vector<std::pair<double, double>> points;
  points.reserve(specs.size());
  regions_.reserve(specs.size());
  for (auto& spec : specs) {
    if (config_.pue_override) spec.pue = *config_.pue_override;
    RegionRuntime rt;
    // Child streams are keyed by region *name* so a subset environment sees
    // exactly the same series for a region as the full environment does.
    const util::Rng region_rng = root.child(spec.name);
    rt.mix = std::make_unique<EnergyMixModel>(spec.mix, region_rng.child("mix"),
                                              horizon_hours);
    rt.weather = std::make_unique<WeatherModel>(
        spec.weather, region_rng.child("weather"), horizon_hours);
    points.emplace_back(spec.latitude, spec.longitude);
    rt.spec = std::move(spec);
    regions_.push_back(std::move(rt));
  }
  transfer_ = std::make_unique<TransferModel>(std::move(points),
                                              config_.transfer);
}

Environment Environment::builtin(EnvironmentConfig config) {
  return Environment(builtin_region_specs(), config);
}

Environment Environment::builtin_subset(const std::vector<int>& region_indices,
                                        EnvironmentConfig config) {
  const auto all = builtin_region_specs();
  std::vector<RegionSpec> specs;
  specs.reserve(region_indices.size());
  for (const int i : region_indices)
    specs.push_back(all.at(static_cast<std::size_t>(i)));
  return Environment(std::move(specs), config);
}

int Environment::region_index(const std::string& name) const {
  for (std::size_t i = 0; i < regions_.size(); ++i)
    if (regions_[i].spec.name == name) return static_cast<int>(i);
  throw std::out_of_range("Environment: unknown region '" + name + "'");
}

double Environment::carbon_intensity(int r, double t) const {
  double v = config_.carbon_intensity_scale *
             regions_.at(static_cast<std::size_t>(r)).mix->carbon_intensity(t);
  if (faults_ != nullptr && fault_view_ == FaultView::Controller)
    v *= faults_->carbon_bias(r, t);
  return v;
}

double Environment::ewif(int r, double t) const {
  double v = config_.water_intensity_scale *
             regions_.at(static_cast<std::size_t>(r))
                 .mix->ewif(t, config_.dataset);
  if (faults_ != nullptr && fault_view_ == FaultView::Controller)
    v *= faults_->water_bias(r, t);
  return v;
}

double Environment::wue(int r, double t) const {
  double v = config_.water_intensity_scale *
             regions_.at(static_cast<std::size_t>(r)).weather->wue(t);
  if (faults_ != nullptr && fault_view_ == FaultView::Controller)
    v *= faults_->water_bias(r, t);
  return v;
}

double Environment::wsf(int r) const {
  return regions_.at(static_cast<std::size_t>(r)).spec.wsf;
}

double Environment::wsf(int r, double t) const {
  double v = regions_.at(static_cast<std::size_t>(r)).spec.wsf;
  // Scarcity shocks are world-level: a drought raises the true Eq. 6
  // weighting, so both the ledger and the controller see it.
  if (faults_ != nullptr) v += faults_->wsf_shock(r, t);
  return v;
}

void Environment::attach_faults(const FaultSchedule* faults,
                                FaultView view) noexcept {
  faults_ = faults;
  fault_view_ = view;
}

double Environment::pue(int r) const {
  return regions_.at(static_cast<std::size_t>(r)).spec.pue;
}

double Environment::water_intensity(int r, double t) const {
  // Eq. 6: (WUE + PUE * EWIF) * (1 + WSF).
  return (wue(r, t) + pue(r) * ewif(r, t)) * (1.0 + wsf(r, t));
}

double Environment::electricity_price(int r, double t) const {
  const double hour = std::fmod(t / 3600.0, 24.0);
  // Peak tariff around 18:00 local-ish; off-peak overnight.
  const double swing = 0.25 * std::cos(2.0 * M_PI * (hour - 18.0) / 24.0);
  return regions_.at(static_cast<std::size_t>(r)).spec.price_usd_per_kwh *
         (1.0 + swing);
}

double Environment::transfer_latency_seconds(int from, int to,
                                             double bytes) const {
  return transfer_->latency_seconds(from, to, bytes);
}

double Environment::transfer_energy_kwh(int from, int to, double bytes) const {
  return transfer_->energy_kwh(from, to, bytes);
}

int Environment::total_servers() const noexcept {
  int total = 0;
  for (const auto& r : regions_) total += r.spec.servers;
  return total;
}

}  // namespace ww::env
