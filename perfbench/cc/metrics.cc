#include "metrics.h"

#include <cmath>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"sim_speed", "sim_s/s"},          {"setup_s", "s"},
      {"peak_rss_mb", "MB"},             {"cell_success_rate", "ratio"},
      {"aql_gain", "ratio"},             {"recognition_accuracy", "ratio"},
      {"cpu_slowdown", "ratio"},         {"availability", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"sim.events", "count"},
      {"sim.events_per_sim_s", "1/s"},
      {"sim.host_ns_per_event", "ns"},
      {"sim.event_core_s", "s"},
      {"sim.barrier_wait_s", "s"},
      {"hw.llc_s", "s"},
      {"hw.llc_refs", "count"},
      {"hw.llc_misses", "count"},
      {"hw.wss_over_llc", "ratio"},
      {"hw.overflow_cell_share", "ratio"},
      {"hv.steps", "count"},
      {"hv.steps_per_dispatch", "ratio"},
      {"hv.dispatches", "count"},
      {"hv.preemptions", "count"},
      {"hv.build_s", "s"},
      {"hv.dispatch_s", "s"},
      {"core.monitor_calls", "count"},
      {"core.monitor_s", "s"},
      {"core.plan_applications", "count"},
      {"workload.calls", "count"},
      {"workload.s", "s"},
      {"fleet.migrations", "count"},
      {"fleet.migration_failures", "count"},
      {"fleet.vm_restarts", "count"},
      {"fleet.crashes", "count"},
      {"fleet.island_imbalance", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.loop_s", "s"},
  };
  return defs;
}

void ListMetrics(FILE* out) {
  for (const MetricDef& d : EndToEndMetrics()) {
    std::fprintf(out, "end_to_end %s %s\n", d.name.c_str(), d.unit.c_str());
  }
  for (const MetricDef& d : PerLayerMetrics()) {
    std::fprintf(out, "per_layer %s %s\n", d.name.c_str(), d.unit.c_str());
  }
}

MetricSet::MetricSet(const std::vector<MetricDef>& defs)
    : defs_(defs), values_(defs.size(), 0.0), set_(defs.size(), false) {}

void MetricSet::Set(const std::string& name, double value) {
  for (size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name == name) {
      values_[i] = value;
      set_[i] = true;
      return;
    }
  }
  throw std::logic_error("undeclared metric " + name);
}

bool MetricSet::Complete() const {
  for (size_t i = 0; i < defs_.size(); ++i) {
    if (!set_[i] || !std::isfinite(values_[i])) {
      return false;
    }
  }
  return true;
}

void MetricSet::PrintTable(FILE* out) const {
  for (size_t i = 0; i < defs_.size(); ++i) {
    if (set_[i]) {
      std::fprintf(out, "  %-26s %16.6g %s\n", defs_[i].name.c_str(), values_[i],
                   defs_[i].unit.c_str());
    }
  }
}

void MetricSet::PrintJson(FILE* out, bool correct, int attempted, int failed) const {
  std::fprintf(out, "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
               correct ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (size_t i = 0; i < defs_.size(); ++i) {
    if (set_[i] && std::isfinite(values_[i])) {
      std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                   defs_[i].name.c_str(), values_[i], defs_[i].unit.c_str());
      sep = ", ";
    }
  }
  std::fprintf(out, "}}\n");
}

}  // namespace perfbench
