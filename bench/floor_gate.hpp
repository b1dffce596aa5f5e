// The regression gate behind every bench driver's --floor option. A floor
// file is a JSON object of checked-in values ("_" keys are comments), and
// matching is two-way: a measured metric without an entry, or an entry
// without a measured metric, fails like a regression. kAtLeastHalf fails
// below half the floor (slow-machine headroom); kAtMost fails above the
// value itself (a correctness ceiling, not a speed).
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "util/fsutil.hpp"
#include "util/json.hpp"

namespace a4nn::bench {

struct GatedMetric {
  enum Gate { kAtLeastHalf, kAtMost };
  std::string key;
  double value = 0.0;
  Gate gate = kAtLeastHalf;
};

/// Check `metrics` against the floor file at `path`. Prints each
/// violation to stderr, or a pass line to stdout; returns the count.
inline int floor_violations(const std::string& path,
                            const std::vector<GatedMetric>& metrics) {
  const util::Json file = util::Json::parse(util::read_file(path));
  std::map<std::string, double> floors;
  for (const auto& [key, value] : file.as_object())
    if (!key.starts_with("_")) floors[key] = value.as_number();
  int violations = 0;
  for (const GatedMetric& m : metrics) {
    // Each entry gates one metric; what is left over at the end is stale.
    const auto entry = floors.extract(m.key);
    if (entry.empty()) {
      std::fprintf(stderr,
                   "UNGATED %s: measured metric has no floor entry — add it "
                   "to %s\n",
                   m.key.c_str(), path.c_str());
      ++violations;
      continue;
    }
    const double floor = entry.mapped();
    if (m.gate == GatedMetric::kAtMost && m.value > floor) {
      std::fprintf(stderr, "REGRESSION %s: %.2f > limit %.2f\n",
                   m.key.c_str(), m.value, floor);
      ++violations;
    } else if (m.gate == GatedMetric::kAtLeastHalf && m.value < floor / 2.0) {
      std::fprintf(stderr, "REGRESSION %s: %.2f < half of floor %.2f\n",
                   m.key.c_str(), m.value, floor);
      ++violations;
    }
  }
  for (const auto& [key, value] : floors) {
    std::fprintf(stderr,
                 "STALE FLOOR %s: no measured metric matches this entry — "
                 "remove or rename it\n",
                 key.c_str());
    ++violations;
  }
  if (violations == 0) std::printf("floor check passed (%s)\n", path.c_str());
  return violations;
}

}  // namespace a4nn::bench
