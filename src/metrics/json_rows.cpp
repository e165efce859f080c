#include "metrics/json_rows.hpp"

#include <cmath>
#include <cstdio>

namespace et::metrics {

void JsonRows::add_row(const std::string& config, std::uint64_t seed,
                       const std::string& metric, double value,
                       int digits) {
  // Only the double goes through a bounded snprintf; the row itself is
  // assembled as a std::string so an arbitrarily long config or metric
  // name can never truncate the row and corrupt the JSON file.
  char num[40] = "null";
  if (std::isfinite(value)) {
    std::snprintf(num, sizeof(num), "%.*g", digits, value);
  }
  std::string row = "  {\"config\": \"";
  row += config;
  row += "\", \"seed\": ";
  row += std::to_string(seed);
  row += ", \"metric\": \"";
  row += metric;
  row += "\", \"value\": ";
  row += num;
  row += "}";
  rows_.push_back(std::move(row));
}

std::string JsonRows::render() const {
  std::string out = "[\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out += rows_[i];
    out += i + 1 < rows_.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

}  // namespace et::metrics
