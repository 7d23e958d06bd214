// Metric names and units the benchmark prints, and the printer. The lists
// must match BENCHMARK.json (the self-tests compare them).

#ifndef AQL_PERFBENCH_METRICS_H_
#define AQL_PERFBENCH_METRICS_H_

#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  std::string name;
  std::string unit;
};

// Printed with --trace 0.
const std::vector<MetricDef>& EndToEndMetrics();
// Printed with --trace 1.
const std::vector<MetricDef>& PerLayerMetrics();

// "end_to_end NAME UNIT" and "per_layer NAME UNIT" lines.
void ListMetrics(FILE* out);

// Values for one declared metric list.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricDef>& defs);

  // Throws std::logic_error for a name the list does not declare.
  void Set(const std::string& name, double value);
  // True when every declared metric holds a finite value.
  bool Complete() const;

  void PrintTable(FILE* out) const;
  // One line: {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
  // Metrics without a finite value are left out.
  void PrintJson(FILE* out, bool correct, int attempted, int failed) const;

 private:
  std::vector<MetricDef> defs_;
  std::vector<double> values_;
  std::vector<bool> set_;
};

}  // namespace perfbench

#endif  // AQL_PERFBENCH_METRICS_H_
