// The traced run: every per-layer metric, from public calls into each
// module and the counters it already exposes (TraceSummary via
// Scenario::tracer, FleetResult and GridMachine port counters, the
// daemon's stats reply, ThreadPool::global_stats(), obs::recorder_stats()).
// Nothing is traced inside the program beyond what those give.
//
// It covers all four workloads whatever --workload names, each on the
// inputs its own seed rule derives from --seed, in four sections; with
// --workload whatif a fifth drives the daemon over its socket.  Each
// section runs in a forked child, so process-wide gauges (pool high-water
// marks, span rings, the obs switch) start fresh per workload.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <string>
#include <tuple>

#include "bench.hpp"
#include "checks.hpp"
#include "core/fork.hpp"
#include "core/omniscient.hpp"
#include "core/sweep.hpp"
#include "obs/obs.hpp"
#include "sched/resource_profile.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "service/tail_run.hpp"
#include "trace/tracer.hpp"
#include "traffic.hpp"
#include "whatif_driver.hpp"
#include "workload/presets.hpp"
#include "workload/swf.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace istc;

namespace {

const char* const kSiteKey[3] = {"ross", "bluemtn", "bluepac"};

std::string site_key(cluster::Site site) {
  return kSiteKey[static_cast<int>(site)];
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// Run one section in a forked child and merge its report.
void in_child(Report& report, const char* name,
              const std::function<void(Report&)>& section) {
  std::fflush(stdout);
  int fds[2];
  if (::pipe(fds) != 0) {
    report.op(false, std::string(name) + ": pipe failed");
    return;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    Report child;
    section(child);
    const std::string text = child.serialize();
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = ::write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    std::fflush(stdout);
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  report.op(pid > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0,
            std::string(name) + " section crashed");
  report.absorb(text);
}

void pool_metrics(Report& r, const PoolDelta& d, const std::string& workload) {
  const PoolStats s = d.end();
  r.metric("util.pools_created." + workload,
           static_cast<double>(s.pools_created), "count");
  r.metric("util.queue_hwm." + workload, static_cast<double>(s.queue_hwm),
           "count");
  r.metric("util.busy_hwm." + workload, static_cast<double>(s.busy_hwm),
           "count");
}

// -- harvest: workload, sim, sched, trace --------------------------------

void harvest_section(const Options& opt, Report& r) {
  const PoolDelta pools;
  const std::uint64_t log_seed = harvest_log_seed(opt.seed, 0);
  double untraced_s = 0, traced_s = 0;
  for (const cluster::Site site : cluster::all_sites()) {
    const std::string key = site_key(site);
    std::vector<double> gen_ms;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      const workload::JobLog log = log_seed == 0
                                       ? workload::site_log(site)
                                       : workload::site_log(site, log_seed);
      gen_ms.push_back(ms_since(t0));
      r.op(!log.jobs().empty(), "empty site log");
    }
    r.metric("workload.site_log_ms." + key, median(gen_ms), "ms");

    // Untraced and traced replays interleaved, twice each: the traced run
    // gives the counters, the pair gives the tracing overhead.
    trace::TraceSummary sum;
    std::uint64_t first_hash = 0;
    for (int rep = 0; rep < 4; ++rep) {
      const bool traced = rep % 2 == 1;
      trace::Tracer tracer(trace::TraceMode::kCountersOnly);
      core::Scenario sc = harvest_scenario(site, log_seed);
      if (traced) sc.tracer = &tracer;
      core::SimRun run(sc);
      const auto t0 = Clock::now();
      const sched::RunResult res = run.finish();
      (traced ? traced_s : untraced_s) += seconds_since(t0);
      if (traced) sum = res.trace;
      const std::uint64_t h = grid::hash_run(res);
      if (rep == 0) {
        first_hash = h;
        check_harvest_run(r, site, log_seed, res);
      } else {
        r.op(h == first_hash, "harvest " + key + ": traced replay differs");
      }
    }
    r.metric("sim.events." + key, static_cast<double>(sum.engine_events_drained),
             "count");
    r.metric("sim.peak_queue_depth." + key,
             static_cast<double>(sum.engine_peak_queue_depth), "count");
    r.metric("sched.passes." + key, static_cast<double>(sum.sched_passes),
             "count");
    r.metric("sched.pass_us_mean." + key, sum.mean_pass_us(), "us");
    const char* stage[4] = {"priority", "dispatch", "backfill", "gate"};
    for (int s = 0; s < 4; ++s) {
      r.metric("sched." + std::string(stage[s]) + "_ms." + key,
               static_cast<double>(sum.stage_us[s]) / 1e3, "ms");
    }
    r.metric("sched.setup_ms." + key,
             static_cast<double>(sum.stage_setup_us) / 1e3, "ms");
    r.metric("sched.backfill_scans." + key,
             static_cast<double>(sum.backfill_scans), "count");
    const double orders =
        static_cast<double>(sum.priority_reuses + sum.priority_recomputes);
    r.metric("sched.priority_reuse_frac." + key,
             orders > 0 ? static_cast<double>(sum.priority_reuses) / orders : 0,
             "fraction");
    r.metric("sched.gate_open_frac." + key,
             sum.gate_decisions > 0 ? static_cast<double>(sum.gate_open) /
                                          static_cast<double>(sum.gate_decisions)
                                    : 0,
             "fraction");
  }
  r.metric("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%");
  pool_metrics(r, pools, "harvest");
}

// -- omniscient: core packer, sched profile -------------------------------

void omniscient_section(const Options& opt, Report& r) {
  core::RunCache cache;
  double tile_ms = 0;
  for (const cluster::Site site : cluster::all_sites()) {
    const std::string key = site_key(site);
    auto t0 = Clock::now();
    const sched::RunResult& base = core::native_baseline(site, &cache);
    r.metric("core.native_baseline_ms." + key, ms_since(t0), "ms");

    // The environment omniscient_makespans packs into: the native log
    // tiled four times, shifted by its drain time.
    constexpr int kCopies = 4;
    t0 = Clock::now();
    SimTime shift = base.span;
    for (const auto& rec : base.records) shift = std::max(shift, rec.end);
    const auto tiled = core::tile_records(base.records, shift, kCopies);
    const cluster::Machine machine(
        cluster::machine_spec(site),
        core::tile_calendar(cluster::site_downtime(site), shift, kCopies));
    tile_ms += ms_since(t0);
    t0 = Clock::now();
    const core::FreeCapacity free(tiled, machine);
    r.metric("core.free_capacity_ms." + key, ms_since(t0), "ms");
    r.metric("core.free_steps." + key, static_cast<double>(free.steps().size()),
             "count");

    // Rep 0's project start, as omniscient_makespans draws it.
    Rng root(omniscient_call_seed(opt.seed) ^
             (static_cast<std::uint64_t>(site) << 32));
    const auto start = static_cast<SimTime>(
        root.below(static_cast<std::uint64_t>(base.span)));

    // Profile seeding alone: one reserve per free-capacity step.
    t0 = Clock::now();
    sched::ResourceProfile profile(start, machine.total_cpus());
    const auto& steps = free.steps();
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const SimTime a = std::max(start, steps[i].first);
      const SimTime b = i + 1 < steps.size()
                            ? std::max(start, steps[i + 1].first)
                            : kTimeInfinity;
      const int used = machine.total_cpus() - steps[i].second;
      if (b > a && used > 0) profile.reserve(a, b, used);
    }
    r.metric("sched.profile_seed_ms." + key, ms_since(t0), "ms");

    for (int cell = static_cast<int>(site); cell < kOmniscientCells; cell += 3) {
      const core::ProjectSpec spec = omniscient_spec(cell);
      const std::string ck = key + "." + std::to_string(spec.total_jobs);
      t0 = Clock::now();
      const core::OmniscientResult pack =
          core::pack_omniscient(free, machine, spec, start);
      r.metric("core.pack_ms." + ck, ms_since(t0), "ms");
      r.metric("core.pack_batches." + ck,
               static_cast<double>(pack.batches.size()), "count");
      r.op(pack.jobs_placed == spec.total_jobs,
           "pack " + ck + ": jobs_placed != jobs");
      if (const auto pin = omniscient_pin(opt.seed, cell)) {
        r.op(double_bits(to_hours(pack.makespan)) == pin->front(),
             "pack " + ck + ": makespan differs from the pinned value");
      }
    }
  }
  r.metric("core.tile_ms", tile_ms, "ms");

  // One call as the workload makes it, for the pool gauges.
  const PoolDelta pools;
  const core::MakespanSample s = core::omniscient_makespans(
      omniscient_site(0), omniscient_spec(0), omniscient_reps(),
      omniscient_call_seed(opt.seed), &cache);
  r.op(s.hours.size() == static_cast<std::size_t>(omniscient_reps()),
       "omniscient call returned the wrong sample size");
  pool_metrics(r, pools, "omniscient");
}

// -- whatif: service, server, obs, core forks, traffic properties ----------

struct ServiceRun {
  std::vector<double> query_ms, ingest_us, rewind_ms, parse_us;
  std::size_t arms = 0, memo_arms = 0, queries = 0, multipoint = 0;
};

/// Feed the schedule serially through Session::handle_line, timing each
/// request; obs is switched per query by `obs_on(query_index)`.
ServiceRun serve_in_process(Report& r, service::Session& session,
                            const std::vector<Scheduled>& schedule,
                            const std::function<bool(std::size_t)>& obs_on) {
  ServiceRun out;
  std::set<std::tuple<double, int, int>> answered;  // (epoch, point, horizon)
  for (const Scheduled& s : schedule) {
    auto t0 = Clock::now();
    const service::Request req = service::parse_request(s.item.line);
    out.parse_us.push_back(seconds_since(t0) * 1e6);
    r.op(req.error.empty(), "request did not parse: " + req.error);
    if (s.item.query) obs::set_enabled(obs_on(out.queries));
    t0 = Clock::now();
    const std::string reply = session.handle_line(s.item.line);
    const double ms = ms_since(t0);
    const service::ParseResult p = service::parse(reply);
    r.op(p.ok() && p.value.find("error") == nullptr,
         "in-process reply error: " + reply.substr(0, 200));
    if (!s.item.query) {
      out.ingest_us.push_back(ms * 1e3);
      if (s.item.straggler) out.rewind_ms.push_back(ms);
      continue;
    }
    out.query_ms.push_back(ms);
    ++out.queries;
    out.multipoint += s.item.multipoint ? 1 : 0;
    const QueryShape& shape = query_shape(s.item.shape);
    const double epoch = p.value.num_or("epoch", -1);
    const std::vector<int> points =
        shape.points_s.empty() ? std::vector<int>{0} : shape.points_s;
    for (const int point : points) {
      ++out.arms;
      out.memo_arms +=
          answered.emplace(epoch, point, shape.horizon_s).second ? 0 : 1;
    }
  }
  return out;
}

void whatif_section(const Options& opt, Report& r) {
  // One nominal window's exact requests, as the socket run sends them.
  Traffic traffic(opt.seed);
  const std::vector<std::string> preload = traffic.preload_swf();
  const std::vector<Scheduled> schedule = make_schedule(
      traffic, kNominalQps, kNominalQps, kNominalWindowS, opt.seed);

  service::SessionConfig cfg;
  cfg.site = cluster::Site::kRoss;
  cfg.snapshot_interval = kServeSnapshotInterval;
  const auto preloaded = [&](service::Session& s) {
    for (const std::string& line : preload) {
      s.handle_line("{\"op\":\"ingest\",\"line\":\"" +
                    service::json_escape(line) + "\"}");
    }
  };

  // Obs on throughout, as the daemon runs.
  obs::set_enabled(true);
  service::Session session(cfg);
  preloaded(session);
  const ServiceRun run =
      serve_in_process(r, session, schedule, [](std::size_t) { return true; });
  std::vector<double> stats_us;
  for (int i = 0; i < 20; ++i) {
    const auto t0 = Clock::now();
    session.handle_line("{\"op\":\"stats\"}");
    stats_us.push_back(seconds_since(t0) * 1e6);
  }
  const obs::RecorderStats rec = obs::recorder_stats();
  r.metric("service.parse_us", median(run.parse_us), "us");
  r.metric("service.whatif_p50_ms", median(run.query_ms), "ms");
  r.metric("service.whatif_p99_ms", quantile(run.query_ms, 0.99), "ms");
  r.metric("service.ingest_p50_us", median(run.ingest_us), "us");
  r.metric("service.rewind_ms_p50", median(run.rewind_ms), "ms");
  r.metric("service.rewinds", static_cast<double>(session.rewinds()), "count");
  r.metric("service.snapshots", static_cast<double>(session.snapshot_count()),
           "count");
  r.metric("service.stats_us", median(stats_us), "us");
  r.metric("obs.ring_threads", static_cast<double>(rec.threads), "count");
  r.metric("obs.ring_mb",
           static_cast<double>(rec.threads * rec.ring_capacity *
                               sizeof(obs::SpanRecord)) / (1 << 20),
           "MB");
  r.metric("obs.spans_dropped", static_cast<double>(rec.dropped), "count");
  std::size_t ingests = 0, stragglers = 0;
  for (const Scheduled& s : schedule) {
    ingests += s.item.query ? 0 : 1;
    stragglers += s.item.straggler ? 1 : 0;
  }
  r.metric("whatif.multipoint_share",
           static_cast<double>(run.multipoint) / static_cast<double>(run.queries),
           "fraction");
  r.metric("whatif.ref_memo_share",
           static_cast<double>(run.memo_arms) / static_cast<double>(run.arms),
           "fraction");
  r.metric("whatif.straggler_share",
           static_cast<double>(stragglers) / static_cast<double>(ingests),
           "fraction");

  // Obs overhead: the same requests on a fresh session, obs switched on
  // for even and off for odd queries (interleaved A/B).  reset() first
  // releases the rings of the sweep threads that have exited.
  obs::reset();
  {
    service::Session ab(cfg);
    preloaded(ab);
    const ServiceRun mixed = serve_in_process(
        r, ab, schedule, [](std::size_t q) { return q % 2 == 0; });
    std::vector<double> on, off;
    for (std::size_t i = 0; i < mixed.query_ms.size(); ++i) {
      (i % 2 == 0 ? on : off).push_back(mixed.query_ms[i]);
    }
    r.metric("obs.overhead_pct", (median(on) / median(off) - 1.0) * 100.0, "%");
  }
  obs::set_enabled(false);

  // Forks on a benchmark-owned TailRun fed the same tail.
  std::vector<workload::Job> jobs;
  const auto add_job = [&](const std::string& swf) {
    workload::SwfLineOutcome out = workload::parse_swf_line(swf);
    if (out.status != workload::SwfLineOutcome::Status::kJob) return;
    out.job.id = static_cast<workload::JobId>(jobs.size());
    out.job.klass = workload::JobClass::kNative;
    jobs.push_back(out.job);
  };
  for (const std::string& line : preload) add_job(line);
  for (const Scheduled& s : schedule) {
    if (!s.item.query) add_job(s.item.swf);
  }
  SimTime frontier = 0;
  for (const auto& j : jobs) frontier = std::max(frontier, j.submit);
  service::TailRun tail(service::TailConfig{cfg.site, std::nullopt});
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const auto& a, const auto& b) { return a.submit < b.submit; });
  for (const auto& j : jobs) tail.submit(j);
  tail.run_until(frontier - 1);

  std::vector<double> fork_us;
  for (int i = 0; i < 200; ++i) {
    const auto t0 = Clock::now();
    auto f = tail.fork();
    fork_us.push_back(seconds_since(t0) * 1e6);
  }
  r.metric("core.fork_us", median(fork_us), "us");

  const double ghz = cluster::machine_spec(cfg.site).clock_ghz;
  const auto arm = [&](service::TailRun& run, const QueryShape& q, SimTime at) {
    run.run_until(at);
    if (q.interstitial) {
      core::ProjectSpec spec = core::ProjectSpec::paper(
          static_cast<std::size_t>(q.jobs), q.cpus,
          static_cast<Seconds>(static_cast<double>(q.runtime_s) * ghz));
      spec.start_time = at;
      spec.stop_time = at + q.horizon_s;
      run.add_stream(spec, service::kSpeculativeIdBase);
    } else {
      for (int j = 0; j < q.jobs; ++j) {
        workload::Job job;
        job.id = service::kSpeculativeIdBase + static_cast<workload::JobId>(j);
        job.klass = workload::JobClass::kNative;
        job.cpus = q.cpus;
        job.submit = at;
        job.runtime = q.runtime_s;
        job.estimate = q.runtime_s;
        run.submit(job);
      }
    }
    return run.finish();
  };
  for (int shape = 0; shape < kQueryShapes; ++shape) {
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      auto f = tail.fork();
      const sched::RunResult res = arm(*f, query_shape(shape), f->now());
      ms.push_back(ms_since(t0));
      r.op(!res.records.empty(), "empty arm result");
    }
    r.metric("core.arm_ms.shape" + std::to_string(shape), median(ms), "ms");
  }
  {
    const QueryShape& q = query_shape(4);
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      core::SweepRunner<service::TailRun> sweep(
          q.points_s.size(), [&](std::size_t) { return tail.fork(); });
      const SimTime at0 = tail.now();
      const auto results = sweep.run_forked(
          at0, [&](service::TailRun& run, std::size_t p) {
            return arm(run, q, at0 + q.points_s[p]);
          });
      ms.push_back(ms_since(t0));
      r.op(results.size() == q.points_s.size(), "sweep lost a point");
    }
    r.metric("core.sweep_ms", median(ms), "ms");
  }

}

/// The deployed daemon on one nominal window's requests: socket latency
/// (for the transport cost), generator lateness, and the daemon's own pool
/// gauges from its stats reply.
void whatif_socket_section(const Options& opt, Report& r) {
  Traffic traffic(opt.seed);
  traffic.preload_swf();
  const std::vector<Scheduled> schedule = make_schedule(
      traffic, kNominalQps, kNominalQps, kNominalWindowS, opt.seed);
  const DaemonConfig dcfg = daemon_config(opt);
  Daemon daemon(dcfg);
  r.op(daemon.ready(), "daemon did not start");
  if (!daemon.ready()) return;
  const PhaseResult phase = run_phase(daemon, schedule);
  check_replies(r, phase, "traced nominal");
  const std::vector<double> sock_q = phase.query_latency_ms();
  const std::vector<double> sock_i = phase.ingest_latency_ms();
  r.metric("whatif.socket_p50_ms", median(sock_q), "ms");
  r.metric("whatif.query_p99_ms", quantile(sock_q, 0.99), "ms");
  r.metric("whatif.query_samples", static_cast<double>(sock_q.size()), "count");
  r.metric("whatif.ingest_p99_ms", quantile(sock_i, 0.99), "ms");
  r.metric("whatif.ingest_samples", static_cast<double>(sock_i.size()), "count");
  r.metric("whatif.generator_late_ms_p99", quantile(phase.late_ms, 0.99), "ms");
  {
    Connection conn(daemon.socket_path());
    const service::ParseResult p =
        service::parse(conn.round_trip("{\"op\":\"stats\"}"));
    const service::Value* pool = p.ok() ? p.value.find("pool") : nullptr;
    r.op(pool != nullptr, "stats reply has no pool gauges");
    if (pool != nullptr) {
      r.metric("util.pools_created.whatif", pool->num_or("pools_created", 0),
               "count");
      r.metric("util.queue_hwm.whatif", pool->num_or("queue_hwm", 0), "count");
      r.metric("util.busy_hwm.whatif", pool->num_or("busy_hwm", 0), "count");
    }
  }
  r.op(daemon.shutdown(), "daemon did not exit on shutdown");
}

// -- fleet: grid ------------------------------------------------------------

void fleet_section(const Options& opt, Report& r) {
  const std::uint64_t stream_seed = fleet_stream_seed(opt.seed, 0);
  auto serial = make_fleet(stream_seed, 1);
  auto t0 = Clock::now();
  const grid::FleetResult one = serial->finish();
  const double one_s = seconds_since(t0);

  const PoolDelta pools;
  auto sharded = make_fleet(stream_seed, 0);
  t0 = Clock::now();
  const grid::FleetResult many = sharded->finish();
  const double many_s = seconds_since(t0);
  pool_metrics(r, pools, "fleet");

  bool accounted = false;
  const std::size_t completed = fleet_completed(many, &accounted);
  r.op(accounted, "fleet: completed + abandoned != jobs");
  r.op(one.hash == many.hash, "fleet: hash differs between 1 and N threads");
  std::size_t batches = 0, delivered = 0;
  for (std::size_t m = 0; m < sharded->machine_count(); ++m) {
    batches += sharded->machine(m).delivery_batches();
    delivered += sharded->machine(m).port_stats().delivered;
  }
  r.metric("grid.epochs", static_cast<double>(many.epochs), "count");
  r.metric("grid.delivery_batches", static_cast<double>(batches), "count");
  r.metric("grid.jobs_per_batch",
           batches > 0 ? static_cast<double>(delivered) / static_cast<double>(batches) : 0,
           "jobs");
  r.metric("grid.completed_frac",
           static_cast<double>(completed) / static_cast<double>(many.dispatches.size()),
           "fraction");
  r.metric("grid.shard_speedup", one_s / many_s, "x");
}

}  // namespace

void run_layers(const Options& opt, Report& report) {
  in_child(report, "harvest", [&](Report& r) { harvest_section(opt, r); });
  in_child(report, "omniscient", [&](Report& r) { omniscient_section(opt, r); });
  in_child(report, "whatif", [&](Report& r) { whatif_section(opt, r); });
  // The daemon itself only when the whatif workload is asked for: under
  // concurrent ingest and queries it races and can crash, so it is kept
  // out of the other workloads' traced runs until that is fixed.
  if (opt.workload == "whatif") {
    in_child(report, "whatif socket",
             [&](Report& r) { whatif_socket_section(opt, r); });
    report.metric("server.transport_us",
                  (report.value("whatif.socket_p50_ms") -
                   report.value("service.whatif_p50_ms")) * 1e3,
                  "us");
  }
  in_child(report, "fleet", [&](Report& r) { fleet_section(opt, r); });
}

}  // namespace perfbench
