#pragma once

// The socket side of the whatif workload: the daemon process, NDJSON
// connections, and the open-loop phase driver.

#include <sys/types.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/time.hpp"
#include "traffic.hpp"

namespace perfbench {

/// No reply within this long after its due time fails a request.
inline constexpr double kTimeoutS = 2.0;
/// The nominal offered rate: this many queries/s plus as many ingest
/// lines/s, so most queries see a new epoch.  A quarter of the saturation
/// rate: the saturation phase's best daemon answered about 2,400 q/s on
/// a 4-vCPU VM (bench/whatif_service: 2,300-2,500 q/s at 4 threads), so
/// the daemon is loaded but queues little, and p50 is mostly service
/// time.  The quarter is a choice, not an observed production load.
inline constexpr double kNominalQps = 600.0;
/// One nominal window: a fresh daemon serving this long of the schedule
/// (~600 queries).  Windows are short because with obs on the daemon's
/// memory grows with every multi-point query (about 0.3 GB a window), and
/// because the known ingest/query race can crash a daemon: a crashed
/// window gives no sample, and short windows leave more clean ones.
inline constexpr double kNominalWindowS = 1.0;
/// `istc serve`'s default snapshot cadence (sim seconds), which the
/// in-process session of the traced run copies.
inline constexpr istc::Seconds kServeSnapshotInterval = 21600;
/// Nominal windows of a run: as many as fill 40% of it, at least one.
inline int nominal_windows(const Options& opt) {
  return std::max(1, static_cast<int>(0.4 * opt.seconds / kNominalWindowS));
}

struct DaemonConfig {
  std::string istc;     ///< absolute path of the CLI
  std::string preload;  ///< SWF tail file, relative to the working dir
  Traffic traffic;      ///< generator state right after the preload
};

/// Enters the benchmark's scratch dir and writes the preload file there.
DaemonConfig daemon_config(const Options& opt);

/// Load connections per phase: nproc, at least 2 (one carries the ingest
/// stream, the rest the queries).
int load_connections();

/// One `istc serve --site ross --obs` process on a fresh Unix socket.
/// The destructor kills and reaps a daemon that is still running.
class Daemon {
 public:
  explicit Daemon(const DaemonConfig& cfg);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// True once the socket accepted a connection after the preload.
  bool ready() const { return ready_; }
  /// Spawn until the socket first accepted.
  double setup_s() const { return setup_s_; }
  const std::string& socket_path() const { return socket_; }
  double peak_rss_mb() const;

  /// Send shutdown on a fresh connection (callers have closed theirs) and
  /// wait for a clean exit; a daemon that has to be killed returns false.
  bool shutdown();

 private:
  void kill_and_reap();

  pid_t pid_ = -1;
  std::string socket_;
  bool ready_ = false;
  double setup_s_ = 0.0;
};

/// A connected NDJSON client socket (closed on destruction).
class Connection {
 public:
  explicit Connection(const std::string& path);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// Send one line; false if the socket failed.
  bool send_line(const std::string& line);
  /// Send one request and wait (up to timeout_s) for its reply line;
  /// empty on failure.
  std::string round_trip(const std::string& line, double timeout_s = 30.0);
  /// Read what is available; complete lines are appended to `lines`.
  /// False on EOF or error.
  bool read_lines(std::vector<std::string>& lines);

 private:
  int fd_ = -1;
  std::string buf_;
};

struct RequestRecord {
  TrafficItem item;
  double due_s = 0.0;      ///< schedule time since phase start
  double sent_s = -1.0;
  double replied_s = -1.0;  ///< -1: no reply
  std::string reply;
  bool timely() const { return replied_s >= 0 && replied_s - due_s <= kTimeoutS; }
};

struct PhaseResult {
  std::vector<RequestRecord> requests;
  std::vector<double> late_ms;  ///< open loop: send time - due time
  std::size_t stragglers = 0;   ///< open loop: straggler ingest lines

  /// Latencies of the timely replies, from due time (open loop) or send
  /// time (closed loop).
  std::vector<double> query_latency_ms() const;
  std::vector<double> ingest_latency_ms() const;
};

/// Open loop: every request is sent at its due time whatever the replies
/// do, and timed from that due time.
PhaseResult run_phase(const Daemon& daemon,
                      const std::vector<Scheduled>& schedule);

/// Closed loop at saturation: each query connection sends its next query
/// as soon as the previous reply arrives, and the ingest connection keeps
/// the ingest count level with the answered queries, until `queries` have
/// been answered; the ingest line then in flight is waited for, not sent
/// after.  *wall_s is the time from the first send to the last query
/// reply.
PhaseResult run_saturated(const Daemon& daemon, Traffic& traffic,
                          std::size_t queries, double* wall_s);

/// One operation per request: a timely reply that parses, carries no
/// error, and (for ingest) was accepted.
void check_replies(Report& report, const PhaseResult& phase,
                   const std::string& label);

}  // namespace perfbench
