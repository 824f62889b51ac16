#include "env/latency.hpp"

#include <stdexcept>

#include "env/region.hpp"

namespace ww::env {

TransferModel::TransferModel(std::vector<std::pair<double, double>> lat_lon,
                             TransferConfig config)
    : n_(lat_lon.size()), config_(config) {
  if (n_ == 0)
    throw std::invalid_argument("TransferModel: need at least one region");
  // Every latency and transfer-energy query reads a distance; compute each
  // haversine once here instead of on every query.
  distance_km_.reserve(n_ * n_);
  for (const auto& [lat_a, lon_a] : lat_lon)
    for (const auto& [lat_b, lon_b] : lat_lon)
      distance_km_.push_back(haversine_km(lat_a, lon_a, lat_b, lon_b));
}

double TransferModel::distance_km(int from, int to) const {
  const auto a = static_cast<std::size_t>(from);
  const auto b = static_cast<std::size_t>(to);
  if (a >= n_ || b >= n_)
    throw std::out_of_range("TransferModel: region index out of range");
  return distance_km_[a * n_ + b];
}

double TransferModel::latency_seconds(int from, int to, double bytes) const {
  if (from == to) return 0.0;
  const double km = distance_km(from, to) * config_.route_stretch;
  const double one_way = km / config_.fiber_speed_km_per_s;
  const double handshakes = config_.rtt_setup_count * 2.0 * one_way;
  const double serialization = bytes / config_.effective_bandwidth_bytes_per_s;
  return handshakes + serialization;
}

double TransferModel::energy_kwh(int from, int to, double bytes) const {
  if (from == to) return 0.0;
  const double gb = bytes / 1.0e9;
  const double km = distance_km(from, to);
  return gb * (config_.energy_kwh_per_gb +
               config_.energy_kwh_per_gb_per_1000km * km / 1000.0);
}

}  // namespace ww::env
