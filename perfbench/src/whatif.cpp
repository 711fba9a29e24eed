// whatif — the what-if daemon as deployed: `istc serve --site ross --obs`
// on a Unix socket, preloaded with a seeded Ross tail with stragglers,
// driven by an open loop from this process over at most nproc persistent
// connections (one carries the in-order ingest stream, the rest carry
// queries).  The only workload that crosses the socket server, the
// service session, obs and the TailRun/SweepRunner fork paths, at the
// hardware thread count.
//
// Phases:
//   1. set-up: spawn until the preload is done and the socket accepts
//      (every daemon of the run is a set-up sample; the median is the
//      metric);
//   2. nominal: kNominalQps queries/s plus as many ingest lines/s, so most
//      queries see a new epoch (cold reference arms), every request timed
//      from its due time.  The same kNominalWindowS schedule is served by
//      nominal_windows() fresh daemons in turn; the best window's p50 is
//      the workload's latency;
//   3. purity: a seeded sample of queries asked again in forked and in
//      scratch mode at the final epoch of the last window must be
//      byte-identical;
//   4. saturation: kSaturationDaemons fresh daemons, each driven in a
//      closed loop (every query connection sends its next query as soon as
//      a reply arrives; ingest kept level with answered queries) until
//      kSaturationQueries are answered.  The best daemon's rate is the
//      workload's throughput, the median peak RSS its memory.  (A ladder
//      of offered rates bounded by query p99 <= 25 ms read anywhere from
//      617 to 2,136 q/s for one seed on a 4-vCPU host: one stall of tens of
//      ms decides a 600-query p99.)
//
// `istc serve` does not exit on shutdown while a client is still
// connected, so every load connection is closed before shutdown is sent
// on a fresh one.  A daemon that still has to be killed counts as a
// failed operation, as does a request with no reply within kTimeoutS.

#include <algorithm>

#include "bench.hpp"
#include "service/json.hpp"
#include "traffic.hpp"
#include "util/rng.hpp"
#include "whatif_driver.hpp"

namespace perfbench {

namespace {

/// Saturation daemons per run, and the queries each answers: small enough
/// to bound the daemon's memory, which grows with every multi-point query
/// while obs is on.
constexpr int kSaturationDaemons = 8;
constexpr std::size_t kSaturationQueries = 800;
constexpr int kPuritySample = 6;

/// Purity at the final epoch of the last nominal window: a seeded sample
/// of queries asked in forked and in scratch mode must be byte-identical.
/// Also prints the daemon's memory and pool gauges for the reader.
void check_last_window(Report& report, const Daemon& daemon,
                       std::uint64_t seed) {
  istc::Rng rng(seed ^ 0xB17E5ull);
  Connection conn(daemon.socket_path());
  for (int i = 0; i < kPuritySample; ++i) {
    const int shape = static_cast<int>(rng.below(kQueryShapes));
    const std::string forked = conn.round_trip(Traffic::forked_line(shape));
    const std::string scratch = conn.round_trip(Traffic::scratch_line(shape));
    report.op(!forked.empty() && forked == scratch,
              "query shape " + std::to_string(shape) +
                  ": forked reply differs from scratch");
  }
  report.note("nominal daemon peak_rss_mb", daemon.peak_rss_mb(), "MB");
  const istc::service::ParseResult p =
      istc::service::parse(conn.round_trip("{\"op\":\"stats\"}"));
  const istc::service::Value* obs = p.ok() ? p.value.find("obs") : nullptr;
  const istc::service::Value* pool = p.ok() ? p.value.find("pool") : nullptr;
  if (obs != nullptr && pool != nullptr) {
    report.note("daemon span_threads", obs->num_or("span_threads", 0), "");
    report.note("daemon pools_created", pool->num_or("pools_created", 0), "");
  }
}

}  // namespace

void run_whatif(const Options& opt, Report& report) {
  DaemonConfig cfg = daemon_config(opt);

  // 1-3. set-up, the nominal rate and purity: every window is a fresh
  // daemon (a set-up sample) serving the same schedule.
  std::vector<double> setup, window_p50, q, ing, late;
  std::size_t stragglers = 0;
  Traffic traffic = cfg.traffic;
  const std::vector<Scheduled> schedule =
      make_schedule(traffic, kNominalQps, kNominalQps, kNominalWindowS,
                    opt.seed);
  const int windows = nominal_windows(opt);
  for (int w = 0; w < windows; ++w) {
    Daemon daemon(cfg);
    report.op(daemon.ready(), "daemon did not start");
    if (!daemon.ready()) continue;
    setup.push_back(daemon.setup_s());
    const PhaseResult phase = run_phase(daemon, schedule);
    check_replies(report, phase, "nominal");
    const std::vector<double> wq = phase.query_latency_ms();
    const std::vector<double> wi = phase.ingest_latency_ms();
    q.insert(q.end(), wq.begin(), wq.end());
    ing.insert(ing.end(), wi.begin(), wi.end());
    late.insert(late.end(), phase.late_ms.begin(), phase.late_ms.end());
    stragglers = phase.stragglers;
    if (w + 1 == windows) check_last_window(report, daemon, opt.seed);
    // As for the saturation daemons below: a daemon that crashed or hung
    // counts as failed and gives no sample.
    const bool clean = daemon.shutdown();
    report.op(clean, "daemon did not exit on shutdown");
    if (clean && !wq.empty()) window_p50.push_back(median(wq));
  }
  std::printf("whatif nominal: %.0f q/s + %.0f ingest/s, %d windows of %.1f s: "
              "%zu queries, %zu ingests, %zu stragglers a window\n",
              kNominalQps, kNominalQps, windows, kNominalWindowS, q.size(),
              ing.size(), stragglers);
  report.note("query_p99_ms (" + std::to_string(q.size()) + " samples)",
              quantile(q, 0.99), "ms");
  report.note("ingest_p99_ms (" + std::to_string(ing.size()) + " samples)",
              quantile(ing, 0.99), "ms");
  report.note("generator_late_ms_p99", quantile(late, 0.99), "ms");

  // 4. saturation: fresh daemons, closed loop: the best rate and the
  // median peak memory.
  std::vector<double> qps, rss;
  for (int k = 0; k < kSaturationDaemons; ++k) {
    Daemon d(cfg);
    report.op(d.ready(), "daemon did not start");
    if (!d.ready()) continue;
    setup.push_back(d.setup_s());
    Traffic sat_traffic = cfg.traffic;
    double wall = 0.0;
    const PhaseResult r =
        run_saturated(d, sat_traffic, kSaturationQueries, &wall);
    check_replies(report, r, "saturation");
    const std::size_t answered = r.query_latency_ms().size();
    // Read before shutdown: an exited daemon has no /proc entry, and a
    // crashed one (still unreaped) has no VmHWM line.
    const double peak = d.peak_rss_mb();
    const bool clean = d.shutdown();
    report.op(clean, "daemon did not exit on shutdown");
    std::printf("  saturation daemon %d: %zu queries in %.3f s, %.0f MB\n", k,
                answered, wall, peak);
    // A daemon that crashed or hung counts as failed above; its partial
    // rate and memory are not samples of the program.
    if (!clean || peak <= 0 || wall <= 0) {
      std::printf("  saturation daemon %d: samples skipped (not a clean "
                  "run)\n",
                  k);
      continue;
    }
    qps.push_back(static_cast<double>(answered) / wall);
    rss.push_back(peak);
  }

  report.metric("setup_s", median(setup), "s");
  // The best daemon, as best_walls keeps the best replay: every daemon
  // serves the same requests, and the slower ones met a slow stretch of
  // the host.
  report.metric("throughput_per_s",
                qps.empty() ? 0.0 : *std::max_element(qps.begin(), qps.end()),
                "1/s");
  // The best window, for the same reason.
  report.metric("latency_p50_ms",
                window_p50.empty()
                    ? 0.0
                    : *std::min_element(window_p50.begin(), window_p50.end()),
                "ms");
  report.metric("peak_rss_mb", median(rss), "MB");
}

}  // namespace perfbench
