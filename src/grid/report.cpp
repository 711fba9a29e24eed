#include "grid/report.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "metrics/report.hpp"
#include "metrics/utilization.hpp"
#include "util/json_format.hpp"

namespace istc::grid {

void write_fleet_report(std::ostream& out, const FleetResult& fleet) {
  out << "{\n";
  out << "  \"schema\": \"" << metrics::kRunReportSchema << "\",\n";
  out << "  \"compat\": [\"" << metrics::kRunReportCompat << "\"],\n";
  out << "  \"machines\": [";
  for (std::size_t i = 0; i < fleet.machines.size(); ++i) {
    const auto& m = fleet.machines[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(m.run.machine.name)
        << "\", \"site\": \"" << json_escape(m.run.machine.site)
        << "\", \"cpus\": " << m.run.machine.cpus
        << ", \"clock_ghz\": " << format_double(m.run.machine.clock_ghz)
        << ",\n     \"span_s\": " << m.run.span
        << ", \"sim_end_s\": " << m.run.sim_end
        << ",\n     \"jobs\": {\"native_completed\": " << m.run.native_count()
        << ", \"interstitial_completed\": " << m.run.interstitial_count()
        << ", \"killed\": " << m.run.killed.size() << "}"
        << ",\n     \"port\": {\"delivered\": " << m.port.delivered
        << ", \"started\": " << m.port.started
        << ", \"completed\": " << m.port.completed
        << ", \"bounced\": " << m.port.bounced
        << ", \"killed\": " << m.port.killed << "}"
        << ",\n     \"utilization\": "
        << format_double(metrics::average_utilization(
               m.run.records, m.run.machine.cpus, 0, m.run.span))
        << ", \"schedule_hash\": \"" << std::hex << m.hash << std::dec
        << "\"}";
  }
  out << "\n  ],\n";
  out << "  \"fleet\": {\n";
  out << "    \"epochs\": " << fleet.epochs << ",\n";
  out << "    \"sim_end_s\": " << fleet.sim_end << ",\n";
  out << "    \"dispatches\": " << fleet.dispatches.size() << ",\n";
  out << "    \"fairness_jain\": " << format_double(fleet.fairness) << ",\n";
  out << "    \"fleet_hash\": \"" << std::hex << fleet.hash << std::dec
      << "\",\n";
  out << "    \"projects\": [";
  for (std::size_t p = 0; p < fleet.projects.size(); ++p) {
    const auto& spec = fleet.projects[p];
    const auto& led = fleet.ledgers[p];
    out << (p == 0 ? "\n" : ",\n");
    out << "      {\"name\": \"" << json_escape(spec.name)
        << "\", \"cpus_per_job\": " << spec.cpus_per_job
        << ", \"jobs\": " << spec.jobs
        << ", \"share\": " << format_double(spec.share)
        << ", \"quota_cpus\": " << spec.quota_cpus
        << ",\n       \"completed\": " << led.completed
        << ", \"routed\": " << led.routed << ", \"bounced\": " << led.bounced
        << ", \"killed\": " << led.killed
        << ", \"abandoned\": " << led.abandoned()
        << ",\n       \"peak_inflight_cpus\": " << led.peak_inflight_cpus
        << ", \"harvested_cpu_sec\": " << led.harvested_cpu_sec
        << ", \"consumed_cpu_sec\": " << led.consumed_cpu_sec << "}";
  }
  out << (fleet.projects.empty() ? "]" : "\n    ]") << "\n";
  out << "  }\n";
  out << "}\n";
}

void write_fleet_report_file(const std::string& path,
                             const FleetResult& fleet) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_fleet_report(out, fleet);
}

}  // namespace istc::grid
