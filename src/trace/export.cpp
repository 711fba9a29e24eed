#include "trace/export.hpp"

#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "util/csv.hpp"
#include "util/json_format.hpp"

namespace istc::trace {

namespace {

constexpr std::int64_t kUsPerSecond = 1'000'000;

const char* class_name(bool interstitial) {
  return interstitial ? "interstitial" : "native";
}

void jsonl_line(std::ostream& out, const TraceEvent& e) {
  out << "{\"t\":" << e.time << ",\"seq\":" << e.seq << ",\"kind\":\""
      << kind_name(e.kind) << "\"";
  switch (e.kind) {
    case EventKind::kJobSubmit:
      out << ",\"job\":" << e.job << ",\"class\":\""
          << class_name(e.interstitial) << "\",\"cpus\":" << e.cpus
          << ",\"estimate\":" << e.value;
      break;
    case EventKind::kJobStart:
      out << ",\"job\":" << e.job << ",\"class\":\""
          << class_name(e.interstitial) << "\",\"cpus\":" << e.cpus
          << ",\"runtime\":" << e.value << ",\"est_end\":" << e.aux_time;
      break;
    case EventKind::kJobFinish:
    case EventKind::kJobKill:
      out << ",\"job\":" << e.job << ",\"class\":\""
          << class_name(e.interstitial) << "\",\"cpus\":" << e.cpus
          << ",\"start\":" << e.aux_time;
      break;
    case EventKind::kReservationMade:
    case EventKind::kReservationHonored:
      out << ",\"job\":" << e.job << ",\"cpus\":" << e.cpus
          << ",\"reserved_start\":" << e.aux_time;
      break;
    case EventKind::kReservationViolated:
      out << ",\"job\":" << e.job << ",\"cpus\":" << e.cpus
          << ",\"reserved_start\":" << e.aux_time << ",\"late_s\":" << e.value;
      break;
    case EventKind::kGateDecision:
      out << ",\"open\":" << (e.open ? "true" : "false") << ",\"wall_time\":";
      if (e.aux_time >= kTimeInfinity) {
        out << "null";
      } else {
        out << e.aux_time;
      }
      out << ",\"k\":" << e.value;
      break;
    case EventKind::kFairShareRecompute:
      out << ",\"queue\":" << e.value;
      break;
    case EventKind::kDowntimeBegin:
      out << ",\"until\":" << e.aux_time;
      break;
    case EventKind::kDowntimeEnd:
      out << ",\"since\":" << e.aux_time;
      break;
    case EventKind::kMachineCrash:
    case EventKind::kNodeFailure:
      out << ",\"cpus\":" << e.cpus << ",\"repair\":" << e.aux_time
          << ",\"killed\":" << e.value;
      break;
    case EventKind::kFaultRepair:
      out << ",\"cpus\":" << e.cpus << ",\"failed_at\":" << e.aux_time;
      break;
  }
  out << "}\n";
}

/// First-fit allocator of contiguous CPU blocks, used only for layout:
/// the simulator itself tracks a bare counter, but chrome://tracing wants
/// stable tracks, and first-fit over the deterministic event stream gives
/// every job a reproducible [offset, offset+cpus) block.
class BlockAllocator {
 public:
  explicit BlockAllocator(int total) { free_[0] = total; }

  int allocate(int cpus) {
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second < cpus) continue;
      const int offset = it->first;
      const int len = it->second;
      free_.erase(it);
      if (len > cpus) free_[offset + cpus] = len - cpus;
      return offset;
    }
    return -1;  // cannot happen unless total_cpus was understated
  }

  void release(int offset, int cpus) {
    auto [it, inserted] = free_.emplace(offset, cpus);
    if (!inserted) return;
    auto next = std::next(it);
    if (next != free_.end() && it->first + it->second == next->first) {
      it->second += next->second;
      free_.erase(next);
    }
    if (it != free_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == it->first) {
        prev->second += it->second;
        free_.erase(it);
      }
    }
  }

 private:
  std::map<int, int> free_;  // offset -> length
};

}  // namespace

void write_jsonl(std::ostream& out, const Tracer& tracer) {
  for (const TraceEvent& e : tracer.sorted_events()) jsonl_line(out, e);
}

void write_jsonl_file(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_jsonl(out, tracer);
}

void write_chrome_trace(std::ostream& out, const Tracer& tracer,
                        const ChromeTraceOptions& options) {
  constexpr int kMachinePid = 1;
  constexpr int kSchedulerPid = 2;
  const int total = options.total_cpus > 0 ? options.total_cpus : (1 << 30);

  struct RunningJob {
    int offset = 0;
    int cpus = 0;
    SimTime start = 0;
    bool interstitial = false;
  };

  const std::vector<TraceEvent> events = tracer.sorted_events();
  SimTime last_time = 0;
  for (const TraceEvent& e : events) last_time = std::max(last_time, e.time);

  BlockAllocator lanes(total);
  std::unordered_map<std::int64_t, RunningJob> running;
  std::set<int> used_offsets;
  std::vector<std::string> lines;
  lines.reserve(events.size());

  auto emit_job = [&](std::int64_t id, const RunningJob& r, SimTime end,
                      bool killed) {
    std::ostringstream line;
    line << "{\"name\":\"job " << id << (killed ? " (killed)" : "")
         << "\",\"cat\":\"" << class_name(r.interstitial)
         << "\",\"ph\":\"X\",\"pid\":" << kMachinePid << ",\"tid\":" << r.offset
         << ",\"ts\":" << r.start * kUsPerSecond
         << ",\"dur\":" << (end - r.start) * kUsPerSecond
         << ",\"args\":{\"cpus\":" << r.cpus << ",\"job\":" << id << "}}";
    lines.push_back(line.str());
  };

  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case EventKind::kJobStart: {
        RunningJob r;
        r.cpus = e.cpus;
        r.start = e.time;
        r.interstitial = e.interstitial;
        r.offset = lanes.allocate(e.cpus);
        if (r.offset < 0) r.offset = total;  // overflow track
        used_offsets.insert(r.offset);
        running[e.job] = r;
        break;
      }
      case EventKind::kJobFinish:
      case EventKind::kJobKill: {
        const auto it = running.find(e.job);
        if (it == running.end()) break;
        emit_job(e.job, it->second, e.time, e.kind == EventKind::kJobKill);
        if (it->second.offset < total) {
          lanes.release(it->second.offset, it->second.cpus);
        }
        running.erase(it);
        break;
      }
      case EventKind::kGateDecision: {
        std::ostringstream line;
        line << "{\"name\":\"gate " << (e.open ? "open" : "closed") << " k="
             << e.value
             << "\",\"cat\":\"gate\",\"ph\":\"i\",\"s\":\"p\",\"pid\":"
             << kSchedulerPid << ",\"tid\":0,\"ts\":" << e.time * kUsPerSecond
             << ",\"args\":{\"open\":" << (e.open ? "true" : "false")
             << ",\"k\":" << e.value << ",\"wall_time\":";
        if (e.aux_time >= kTimeInfinity) {
          line << "null";
        } else {
          line << e.aux_time;
        }
        line << "}}";
        lines.push_back(line.str());
        break;
      }
      case EventKind::kFairShareRecompute: {
        std::ostringstream line;
        line << "{\"name\":\"queue length\",\"ph\":\"C\",\"pid\":"
             << kSchedulerPid << ",\"ts\":" << e.time * kUsPerSecond
             << ",\"args\":{\"waiting\":" << e.value << "}}";
        lines.push_back(line.str());
        break;
      }
      case EventKind::kDowntimeBegin: {
        std::ostringstream line;
        line << "{\"name\":\"downtime\",\"cat\":\"downtime\",\"ph\":\"X\","
                "\"pid\":"
             << kSchedulerPid << ",\"tid\":1,\"ts\":" << e.time * kUsPerSecond
             << ",\"dur\":" << (e.aux_time - e.time) * kUsPerSecond << "}";
        lines.push_back(line.str());
        break;
      }
      case EventKind::kMachineCrash:
      case EventKind::kNodeFailure: {
        std::ostringstream line;
        line << "{\"name\":\"" << kind_name(e.kind)
             << "\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"g\",\"pid\":"
             << kSchedulerPid << ",\"tid\":2,\"ts\":" << e.time * kUsPerSecond
             << ",\"args\":{\"cpus\":" << e.cpus << ",\"repair\":" << e.aux_time
             << ",\"killed\":" << e.value << "}}";
        lines.push_back(line.str());
        break;
      }
      default:
        break;  // submits, reservations, downtime ends: JSONL-only detail
    }
  }
  // Jobs still running when the trace ends render up to the last event.
  for (const auto& [id, r] : running) emit_job(id, r, last_time, false);

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kMachinePid
      << ",\"args\":{\"name\":\"" << json_escape(options.machine_name)
      << "\"}}";
  out << ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kSchedulerPid
      << ",\"args\":{\"name\":\"scheduler\"}}";
  out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kSchedulerPid
      << ",\"tid\":0,\"args\":{\"name\":\"gate\"}}";
  out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kSchedulerPid
      << ",\"tid\":1,\"args\":{\"name\":\"downtime\"}}";
  for (const int offset : used_offsets) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kMachinePid
        << ",\"tid\":" << offset << ",\"args\":{\"name\":\"cpu " << offset
        << "\"}}";
  }
  for (const std::string& line : lines) out << ",\n" << line;
  out << "\n]}\n";
}

void write_chrome_trace_file(const std::string& path, const Tracer& tracer,
                             const ChromeTraceOptions& options) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_chrome_trace(out, tracer, options);
}

std::vector<SummaryField> summary_fields(const TraceSummary& s) {
  // Pinned column order of counters.csv: new fields append at the end so
  // existing consumers keep their offsets.  Wall-clock (`*_us`) timers are
  // flagged — they never participate in determinism comparisons.
  return {
      {"events_recorded", s.events_recorded, false},
      {"events_dropped", s.events_dropped, false},
      {"engine_events_drained", s.engine_events_drained, false},
      {"engine_timesteps", s.engine_timesteps, false},
      {"sched_passes", s.sched_passes, false},
      {"sched_pass_us_total", s.sched_pass_us_total, true},
      {"sched_pass_us_max", s.sched_pass_us_max, true},
      {"backfill_scans", s.backfill_scans, false},
      {"reservations_made", s.reservations_made, false},
      {"reservations_honored", s.reservations_honored, false},
      {"reservations_violated", s.reservations_violated, false},
      {"gate_decisions", s.gate_decisions, false},
      {"gate_open", s.gate_open, false},
      {"gate_closed", s.gate_closed, false},
      {"interstitial_submitted", s.interstitial_submitted, false},
      {"interstitial_rejected_by_gate", s.interstitial_rejected_by_gate,
       false},
      {"interstitial_killed", s.interstitial_killed, false},
      // Pass-pipeline stage timings (one slot per sched::StageKind).
      {"stage_priority_us", s.stage_us[0], true},
      {"stage_dispatch_us", s.stage_us[1], true},
      {"stage_backfill_us", s.stage_us[2], true},
      {"stage_gate_us", s.stage_us[3], true},
      {"priority_recomputes", s.priority_recomputes, false},
      {"priority_reuses", s.priority_reuses, false},
      {"profile_rebuilds", s.profile_rebuilds, false},
      // Engine event-core gauges (typed event queue).
      {"engine_peak_queue_depth", s.engine_peak_queue_depth, false},
      {"engine_max_timestep_batch", s.engine_max_timestep_batch, false},
      {"engine_events_callback", s.engine_events_callback, false},
      {"engine_events_job_submit", s.engine_events_job_submit, false},
      {"engine_events_job_finish", s.engine_events_job_finish, false},
      {"engine_events_wake", s.engine_events_wake, false},
      {"engine_heap_allocations", s.engine_heap_allocations, false},
      // Fault-injection counters.
      {"faults_injected", s.faults_injected, false},
      {"fault_crashes", s.fault_crashes, false},
      {"fault_node_failures", s.fault_node_failures, false},
      {"fault_killed_native", s.fault_killed_native, false},
      {"fault_killed_interstitial", s.fault_killed_interstitial, false},
      {"fault_cpu_sec_lost", s.fault_cpu_sec_lost, false},
      {"fault_cpu_sec_recovered", s.fault_cpu_sec_recovered, false},
      {"fault_native_resubmits", s.fault_native_resubmits, false},
      {"fault_retries", s.fault_retries, false},
      {"fault_retries_exhausted", s.fault_retries_exhausted, false},
      // Telemetry layer (appended).
      {"stage_setup_us", s.stage_setup_us, true},
      {"engine_events_sample", s.engine_events_sample, false},
      // Typed fault-path events (appended with the calendar-queue core).
      {"engine_events_repair", s.engine_events_repair, false},
      {"engine_events_fault", s.engine_events_fault, false},
      // Grid-port deliveries (appended with the fork-tree sweep engine).
      {"engine_events_grid_arrival", s.engine_events_grid_arrival, false},
  };
}

void write_counters_csv(const std::string& path,
                        const TraceSummary& summary) {
  const auto fields = summary_fields(summary);
  std::vector<std::string> names;
  std::vector<std::string> values;
  names.reserve(fields.size());
  values.reserve(fields.size());
  for (const SummaryField& f : fields) {
    names.emplace_back(f.name);
    values.push_back(std::to_string(f.value));
  }
  CsvWriter csv(path);
  csv.header(names);
  csv.row(values);
}

}  // namespace istc::trace
