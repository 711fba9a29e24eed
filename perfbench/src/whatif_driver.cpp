#include "whatif_driver.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <thread>

#include "service/json.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// waitpid with a deadline; true (and *status set) once the child exited.
bool wait_exit(pid_t pid, double timeout_s, int* status) {
  const auto t0 = Clock::now();
  while (true) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) return true;
    if (r < 0 && errno != EINTR) return true;  // already reaped
    if (seconds_since(t0) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

int g_daemon_count = 0;

}  // namespace

int load_connections() {
  return static_cast<int>(std::max<std::size_t>(2, istc::default_thread_count()));
}

DaemonConfig daemon_config(const Options& opt) {
  // Relative socket names keep sun_path short however deep the checkout.
  if (::chdir(opt.tmp_dir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot enter %s\n", opt.tmp_dir.c_str());
  }
  DaemonConfig cfg{opt.istc, "whatif-tail.swf", Traffic(opt.seed)};
  std::ofstream out(cfg.preload);
  for (const std::string& line : cfg.traffic.preload_swf()) out << line << '\n';
  return cfg;
}

Daemon::Daemon(const DaemonConfig& cfg) {
  const int k = g_daemon_count++;
  socket_ = "whatif-" + std::to_string(k) + ".sock";
  const std::string log = "whatif-daemon-" + std::to_string(k) + ".log";
  const std::string threads = std::to_string(istc::default_thread_count());
  ::unlink(socket_.c_str());
  const auto t0 = Clock::now();
  pid_ = ::fork();
  if (pid_ == 0) {
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
    }
    const char* argv[] = {cfg.istc.c_str(), "serve", "--site", "ross", "--obs",
                          "--socket", socket_.c_str(), "--preload",
                          cfg.preload.c_str(), "--threads", threads.c_str(),
                          nullptr};
    ::execv(argv[0], const_cast<char* const*>(argv));
    ::_exit(127);
  }
  if (pid_ < 0) return;
  while (seconds_since(t0) < 30.0) {
    const int fd = connect_unix(socket_);
    if (fd >= 0) {
      setup_s_ = seconds_since(t0);
      ::close(fd);
      ready_ = true;
      return;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;  // died during start-up
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

Daemon::~Daemon() { kill_and_reap(); }

void Daemon::kill_and_reap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

double Daemon::peak_rss_mb() const {
  return pid_ > 0 ? perfbench::peak_rss_mb(std::to_string(pid_)) : 0.0;
}

bool Daemon::shutdown() {
  if (pid_ <= 0) return false;
  {
    Connection conn(socket_);
    const std::string reply = conn.round_trip("{\"op\":\"shutdown\"}", 5.0);
    if (reply.empty()) std::printf("shutdown got no reply\n");
  }
  int status = 0;
  if (wait_exit(pid_, 5.0, &status)) {
    pid_ = -1;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return true;
    std::printf("daemon exited with %s %d\n",
                WIFSIGNALED(status) ? "signal" : "status",
                WIFSIGNALED(status) ? WTERMSIG(status) : WEXITSTATUS(status));
    return false;
  }
  std::printf("daemon ignored shutdown; killing it\n");
  kill_and_reap();
  return false;
}

Connection::Connection(const std::string& path) : fd_(connect_unix(path)) {}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  const std::string msg = line + '\n';
  std::size_t off = 0;
  while (off < msg.size()) {
    const ssize_t n = ::send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Connection::read_lines(std::vector<std::string>& lines) {
  char chunk[65536];
  const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
  if (n == 0) return false;
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
  buf_.append(chunk, static_cast<std::size_t>(n));
  std::size_t start = 0;
  for (std::size_t nl; (nl = buf_.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.push_back(buf_.substr(start, nl - start));
  }
  buf_.erase(0, start);
  return true;
}

std::string Connection::round_trip(const std::string& line, double timeout_s) {
  if (!send_line(line)) return "";
  std::vector<std::string> lines;
  const auto t0 = Clock::now();
  while (lines.empty()) {
    const double left = timeout_s - seconds_since(t0);
    if (left <= 0) return "";
    pollfd p{fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(std::ceil(left * 1e3))) < 0 &&
        errno != EINTR) {
      return "";
    }
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0 && !read_lines(lines) &&
        lines.empty()) {
      return "";
    }
  }
  return lines.front();
}

std::vector<double> PhaseResult::query_latency_ms() const {
  std::vector<double> out;
  for (const auto& r : requests) {
    if (r.item.query && r.timely()) out.push_back((r.replied_s - r.due_s) * 1e3);
  }
  return out;
}

std::vector<double> PhaseResult::ingest_latency_ms() const {
  std::vector<double> out;
  for (const auto& r : requests) {
    if (!r.item.query && r.timely()) out.push_back((r.replied_s - r.due_s) * 1e3);
  }
  return out;
}

PhaseResult run_phase(const Daemon& daemon,
                      const std::vector<Scheduled>& schedule) {
  PhaseResult out;
  out.requests.reserve(schedule.size());
  for (const Scheduled& s : schedule) {
    RequestRecord r;
    r.item = s.item;
    r.due_s = s.due_s;
    out.stragglers += r.item.straggler ? 1 : 0;
    out.requests.push_back(std::move(r));
  }

  // Connection 0 carries the ingest stream (in order); queries rotate
  // over the others.  Each connection answers in request order.
  const int n = load_connections();
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<std::deque<std::size_t>> inflight(static_cast<std::size_t>(n));
  std::vector<pollfd> fds;
  for (int c = 0; c < n; ++c) {
    conns.push_back(std::make_unique<Connection>(daemon.socket_path()));
    fds.push_back({conns.back()->fd(), POLLIN, 0});
  }
  std::vector<std::size_t> conn_of(out.requests.size());
  int next_query_conn = 1;
  for (std::size_t i = 0; i < out.requests.size(); ++i) {
    if (out.requests[i].item.query) {
      conn_of[i] = static_cast<std::size_t>(next_query_conn);
      next_query_conn = next_query_conn % (n - 1) + 1;
    }
  }

  const auto start = Clock::now() + std::chrono::milliseconds(20);
  auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  auto drain = [&](double wait_s) {
    const auto ns = static_cast<long long>(std::max(0.0, wait_s) * 1e9);
    const timespec ts{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::vector<std::string> lines;
      if (!conns[c]->read_lines(lines)) fds[c].fd = -1;  // closed: stop polling
      const double t = now_s();
      for (std::string& line : lines) {
        if (inflight[c].empty()) break;
        RequestRecord& r = out.requests[inflight[c].front()];
        inflight[c].pop_front();
        r.replied_s = t;
        r.reply = std::move(line);
      }
    }
  };
  auto pending = [&] {
    std::size_t p = 0;
    for (const auto& q : inflight) p += q.size();
    return p;
  };

  for (std::size_t i = 0; i < out.requests.size(); ++i) {
    RequestRecord& r = out.requests[i];
    for (double left; (left = r.due_s - now_s()) > 0;) drain(left);
    r.sent_s = now_s();
    out.late_ms.push_back((r.sent_s - r.due_s) * 1e3);
    if (conns[conn_of[i]]->send_line(r.item.line)) inflight[conn_of[i]].push_back(i);
  }
  const double deadline = (out.requests.empty() ? 0 : out.requests.back().due_s) +
                          kTimeoutS;
  while (pending() > 0 && now_s() < deadline) drain(0.01);
  return out;
}

PhaseResult run_saturated(const Daemon& daemon, Traffic& traffic,
                          std::size_t queries, double* wall_s) {
  PhaseResult out;
  std::vector<std::size_t> query_ids, ingest_ids;
  for (std::size_t i = 0; i < queries; ++i) {
    RequestRecord q;
    q.item = traffic.next_query();
    query_ids.push_back(out.requests.size());
    out.requests.push_back(std::move(q));
    RequestRecord g;
    g.item = traffic.next_ingest();
    ingest_ids.push_back(out.requests.size());
    out.requests.push_back(std::move(g));
  }

  const int n = load_connections();
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<pollfd> fds;
  for (int c = 0; c < n; ++c) {
    conns.push_back(std::make_unique<Connection>(daemon.socket_path()));
    fds.push_back({conns.back()->fd(), POLLIN, 0});
  }
  std::vector<long> outstanding(static_cast<std::size_t>(n), -1);
  const auto start = Clock::now();
  auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::size_t next_query = 0, next_ingest = 0, answered = 0;
  const auto send = [&](std::size_t c, std::size_t id) {
    RequestRecord& r = out.requests[id];
    r.due_s = r.sent_s = now_s();
    if (conns[c]->send_line(r.item.line)) outstanding[c] = static_cast<long>(id);
  };
  const auto feed = [&] {
    for (std::size_t c = 1; c < conns.size(); ++c) {
      if (outstanding[c] < 0 && next_query < query_ids.size()) {
        send(c, query_ids[next_query++]);
      }
    }
    if (outstanding[0] < 0 && next_ingest < ingest_ids.size() &&
        next_ingest <= answered) {
      send(0, ingest_ids[next_ingest++]);
    }
  };
  const auto in_flight = [&] {
    return std::any_of(outstanding.begin(), outstanding.end(),
                       [](long id) { return id >= 0; });
  };
  feed();
  double last_progress = 0.0, last_reply = 0.0;
  // Once every query is answered nothing new is sent, but the ingest line
  // still in flight then is waited for: it was sent, so it needs a reply.
  while ((answered < queries || in_flight()) &&
         now_s() - last_progress < kTimeoutS) {
    ::poll(fds.data(), fds.size(), 10);
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::vector<std::string> lines;
      if (!conns[c]->read_lines(lines)) fds[c].fd = -1;
      for (std::string& line : lines) {
        if (outstanding[c] < 0) break;
        RequestRecord& r = out.requests[static_cast<std::size_t>(outstanding[c])];
        outstanding[c] = -1;
        r.replied_s = last_progress = now_s();
        r.reply = std::move(line);
        // The rate is timed to the last query reply.
        if (c > 0) {
          ++answered;
          last_reply = r.replied_s;
        }
      }
    }
    if (answered < queries) feed();
  }
  *wall_s = last_reply;
  // Requests never sent (the loop gave up) are not attempted.
  std::vector<RequestRecord> sent;
  for (RequestRecord& r : out.requests) {
    if (r.sent_s >= 0) sent.push_back(std::move(r));
  }
  out.requests = std::move(sent);
  return out;
}

void check_replies(Report& report, const PhaseResult& phase,
                   const std::string& label) {
  for (const RequestRecord& r : phase.requests) {
    std::string why;
    if (!r.timely()) {
      why = r.replied_s < 0 ? "no reply" : "reply after the timeout";
    } else {
      const istc::service::ParseResult p = istc::service::parse(r.reply);
      if (!p.ok() || !p.value.is_object()) {
        why = "unparseable reply";
      } else if (p.value.find("error") != nullptr) {
        why = "error reply: " + r.reply.substr(0, 200);
      } else if (!r.item.query && !p.value.bool_or("accepted", false)) {
        why = "ingest not accepted: " + r.reply.substr(0, 200);
      }
    }
    report.op(why.empty(), label + " request: " + why);
  }
}

}  // namespace perfbench
