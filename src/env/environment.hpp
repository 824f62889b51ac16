// Environment facade: everything WaterWise observes about the world.
//
// Owns the region profiles, their energy-mix and weather series, the Water
// Scarcity Factors, and the transfer model, and exposes the quantities the
// footprint equations (Sec. 2) and the scheduler (Sec. 4) consume:
// carbon intensity, EWIF, WUE, WSF, PUE, water intensity (Eq. 6), and
// inter-region transfer latency/energy.  Sensitivity experiments plug in via
// multiplicative perturbation knobs (the +-10% studies of Sec. 6) and the
// dataset switch (Electricity Maps vs. WRI, Fig. 6).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "env/energy_mix.hpp"
#include "env/faults.hpp"
#include "env/latency.hpp"
#include "env/region.hpp"
#include "env/weather.hpp"
#include "util/rng.hpp"

namespace ww::env {

/// Which side of a fault campaign this Environment instance models.
///
/// World: the ground truth the simulator's ledger integrates — only
/// world-level faults apply (water-scarcity shocks; capacity faults are
/// consumed by the Simulator, not the Environment).
/// Controller: what the scheduler observes — world-level faults *plus* the
/// systematic forecast-bias multipliers on carbon/water intensities.
enum class FaultView { World, Controller };

struct EnvironmentConfig {
  std::uint64_t seed = 20250612;
  int horizon_days = 400;  ///< Precomputed series length.
  WaterDataset dataset = WaterDataset::ElectricityMaps;
  std::optional<double> pue_override;  ///< Force one PUE across regions.
  double carbon_intensity_scale = 1.0; ///< Sensitivity knob.
  double water_intensity_scale = 1.0;  ///< Sensitivity knob (scales EWIF+WUE).
  TransferConfig transfer;
};

class Environment {
 public:
  /// Builds an environment from explicit region specs.
  Environment(std::vector<RegionSpec> specs, EnvironmentConfig config = {});

  /// The paper's five-region setup (Zurich, Madrid, Oregon, Milan, Mumbai).
  [[nodiscard]] static Environment builtin(EnvironmentConfig config = {});

  /// Subset of the built-in regions by index into builtin_region_specs()
  /// (Fig. 12 region-availability experiments).
  [[nodiscard]] static Environment builtin_subset(
      const std::vector<int>& region_indices, EnvironmentConfig config = {});

  [[nodiscard]] int num_regions() const noexcept {
    return static_cast<int>(regions_.size());
  }
  [[nodiscard]] const RegionSpec& region(int r) const {
    return regions_.at(static_cast<std::size_t>(r)).spec;
  }
  [[nodiscard]] int region_index(const std::string& name) const;

  /// Grid carbon intensity, gCO2/kWh.
  [[nodiscard]] double carbon_intensity(int r, double t) const;
  /// Regional energy water intensity factor, L/kWh (active dataset).
  [[nodiscard]] double ewif(int r, double t) const;
  /// Water usage effectiveness (cooling), L/kWh.
  [[nodiscard]] double wue(int r, double t) const;
  /// Water scarcity factor (dimensionless, base spec value).
  [[nodiscard]] double wsf(int r) const;
  /// Water scarcity factor at instant t: the base value plus any active
  /// injected scarcity shock (identical to wsf(r) without attached faults).
  [[nodiscard]] double wsf(int r, double t) const;
  /// Power usage effectiveness.
  [[nodiscard]] double pue(int r) const;
  /// Water intensity, Eq. 6: (WUE + PUE * EWIF) * (1 + WSF).
  [[nodiscard]] double water_intensity(int r, double t) const;

  /// Attaches a fault-injection overlay (env/faults.hpp).  The schedule is
  /// borrowed, not owned — the caller keeps it alive for the Environment's
  /// lifetime.  World view applies only world-level faults (WSF shocks);
  /// Controller view additionally biases the observed carbon/water
  /// intensities.  Pass nullptr to detach.
  void attach_faults(const FaultSchedule* faults,
                     FaultView view = FaultView::World) noexcept;
  [[nodiscard]] const FaultSchedule* faults() const noexcept {
    return faults_;
  }

  /// Time-of-use electricity price, USD/kWh (Sec. 7 cost extension):
  /// the region's base tariff with a +-25% peak/off-peak swing.
  [[nodiscard]] double electricity_price(int r, double t) const;

  [[nodiscard]] double transfer_latency_seconds(int from, int to,
                                                double bytes) const;
  [[nodiscard]] double transfer_energy_kwh(int from, int to,
                                           double bytes) const;

  [[nodiscard]] const EnvironmentConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] WaterDataset dataset() const noexcept {
    return config_.dataset;
  }
  [[nodiscard]] double horizon_seconds() const noexcept {
    return static_cast<double>(config_.horizon_days) * 86400.0;
  }
  [[nodiscard]] int total_servers() const noexcept;

 private:
  struct RegionRuntime {
    RegionSpec spec;
    std::unique_ptr<EnergyMixModel> mix;
    std::unique_ptr<WeatherModel> weather;
  };

  std::vector<RegionRuntime> regions_;
  std::unique_ptr<TransferModel> transfer_;
  EnvironmentConfig config_;
  const FaultSchedule* faults_ = nullptr;  ///< Borrowed; see attach_faults.
  FaultView fault_view_ = FaultView::World;
};

}  // namespace ww::env
