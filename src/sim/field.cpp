#include "sim/field.hpp"

#include <cmath>

#include "stats/summary.hpp"
#include "support/check.hpp"
#include "support/string_util.hpp"

namespace geogossip::sim {

std::string_view field_kind_name(FieldKind kind) noexcept {
  switch (kind) {
    case FieldKind::kSpike:
      return "spike";
    case FieldKind::kGradient:
      return "gradient";
    case FieldKind::kGaussian:
      return "gaussian";
    case FieldKind::kCheckerboard:
      return "checkerboard";
    case FieldKind::kSpikedGaussian:
      return "spiked-gaussian";
  }
  return "?";
}

FieldKind parse_field_kind(const std::string& name) {
  const std::string lowered = to_lower(name);
  if (lowered == "spike") return FieldKind::kSpike;
  if (lowered == "gradient") return FieldKind::kGradient;
  if (lowered == "gaussian") return FieldKind::kGaussian;
  if (lowered == "checkerboard") return FieldKind::kCheckerboard;
  if (lowered == "spiked-gaussian") return FieldKind::kSpikedGaussian;
  throw ArgumentError("unknown field kind '" + name + "'");
}

std::vector<double> spike_field(std::size_t n, Rng& rng) {
  GG_CHECK_ARG(n >= 1, "spike_field: n >= 1");
  std::vector<double> x(n, 0.0);
  x[rng.below(n)] = 1.0;
  return x;
}

std::vector<double> gradient_field(
    const std::vector<geometry::Vec2>& points) {
  std::vector<double> x;
  x.reserve(points.size());
  for (const auto& p : points) x.push_back(p.x + p.y);
  return x;
}

std::vector<double> gaussian_field(std::size_t n, Rng& rng) {
  std::vector<double> x;
  x.reserve(n);
  for (std::size_t i = 0; i < n; ++i) x.push_back(rng.normal());
  return x;
}

std::vector<double> checkerboard_field(
    const std::vector<geometry::Vec2>& points, int k) {
  GG_CHECK_ARG(k >= 1, "checkerboard_field: k >= 1");
  std::vector<double> x;
  x.reserve(points.size());
  for (const auto& p : points) {
    const int col = std::min(static_cast<int>(p.x * k), k - 1);
    const int row = std::min(static_cast<int>(p.y * k), k - 1);
    x.push_back(((row + col) % 2 == 0) ? 1.0 : -1.0);
  }
  return x;
}

std::vector<double> make_field(FieldKind kind,
                               const std::vector<geometry::Vec2>& points,
                               Rng& rng) {
  switch (kind) {
    case FieldKind::kSpike:
      return spike_field(points.size(), rng);
    case FieldKind::kGradient:
      return gradient_field(points);
    case FieldKind::kGaussian:
      return gaussian_field(points.size(), rng);
    case FieldKind::kCheckerboard:
      return checkerboard_field(points, 8);
    case FieldKind::kSpikedGaussian: {
      auto x = gaussian_field(points.size(), rng);
      x[rng.below(points.size())] +=
          std::sqrt(static_cast<double>(points.size()));
      return x;
    }
  }
  throw ArgumentError("make_field: bad kind");
}

void center_and_normalize(std::vector<double>& values) {
  GG_CHECK_ARG(!values.empty(), "center_and_normalize: empty field");
  const double mean = stats::mean_of(values);
  for (double& v : values) v -= mean;
  const double norm = stats::l2_norm(values);
  if (norm == 0.0) return;  // constant field: all-zero is the centred form
  for (double& v : values) v /= norm;
}

}  // namespace geogossip::sim
