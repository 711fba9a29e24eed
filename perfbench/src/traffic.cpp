#include "traffic.hpp"

#include <algorithm>
#include <cmath>

#include "service/json.hpp"

namespace perfbench {

namespace {

// The query set of bench/whatif_service, parameters unchanged, so the two
// benchmarks of the daemon ask the same questions.  Shapes 1 and 4 are
// multi-point (one fork per point, a sweep pool per query).
const QueryShape kShapes[kQueryShapes] = {
    {2, 32, 600, 14400, false, {}},
    {6, 16, 300, 14400, false, {0, 3600}},
    {1, 256, 900, 21600, false, {}},
    {8, 8, 204, 28800, true, {}},
    {4, 64, 450, 14400, false, {0, 1800, 7200}},
    {3, 128, 600, 21600, false, {}},
};

bool multipoint(int shape) { return kShapes[shape].points_s.size() > 1; }

std::string swf(std::int64_t submit, std::int64_t runtime, int cpus,
                std::int64_t estimate) {
  return "1 " + std::to_string(submit) + " 0 " + std::to_string(runtime) +
         " " + std::to_string(cpus) + " -1 -1 " + std::to_string(cpus) + " " +
         std::to_string(estimate) + " -1 1 3 2 -1 -1 -1 -1 -1";
}

}  // namespace

Traffic::Traffic(std::uint64_t seed) : rng_(0x5EED5EEDull ^ seed) {}

std::string Traffic::next_swf(bool* straggler) {
  ++lines_;
  // bench/whatif_service's ranges, drawn instead of cycled: runtimes
  // 240-720 s, 8-120 CPUs, 45 s between submits on average.
  const auto runtime = static_cast<std::int64_t>(240 + 60 * rng_.below(9));
  const int cpus = 8 + 16 * static_cast<int>(rng_.below(8));
  *straggler = lines_ % kStragglerEvery == 0;
  if (*straggler) {
    // Late by 10 minutes to 3 hours: behind the live clock, so the
    // daemon rewinds to a snapshot and replays the accepted tail.
    const auto late = static_cast<std::int64_t>(600 + rng_.below(10200));
    const std::int64_t submit = frontier_ > late ? frontier_ - late : 1;
    return swf(submit, runtime, cpus, 1200);
  }
  frontier_ += static_cast<std::int64_t>(20 + rng_.below(51));
  return swf(frontier_, runtime, cpus, 1200);
}

std::vector<std::string> Traffic::preload_swf() {
  std::vector<std::string> lines;
  for (int i = 0; i < kPreloadLines; ++i) {
    bool straggler = false;
    lines.push_back(next_swf(&straggler));
  }
  return lines;
}

TrafficItem Traffic::next_ingest() {
  TrafficItem item;
  item.swf = next_swf(&item.straggler);
  item.line = "{\"op\":\"ingest\",\"line\":\"" +
              istc::service::json_escape(item.swf) + "\"}";
  return item;
}

TrafficItem Traffic::next_query() {
  TrafficItem item;
  item.query = true;
  // Every shape equally often, as bench/whatif_service asks its set: a
  // third of the queries are multi-point.
  item.shape = static_cast<int>(rng_.below(kQueryShapes));
  item.multipoint = multipoint(item.shape);
  item.line = forked_line(item.shape);
  return item;
}

const QueryShape& query_shape(int shape) { return kShapes[shape]; }

std::string Traffic::open_line(int shape) {
  const QueryShape& q = kShapes[shape];
  std::string s = "{\"op\":\"whatif\"";
  if (q.interstitial) s += ",\"class\":\"interstitial\"";
  s += ",\"jobs\":" + std::to_string(q.jobs) +
       ",\"cpus\":" + std::to_string(q.cpus) +
       ",\"runtime_s\":" + std::to_string(q.runtime_s) +
       ",\"horizon_s\":" + std::to_string(q.horizon_s);
  if (!q.points_s.empty()) {
    s += ",\"points_s\":[";
    for (std::size_t i = 0; i < q.points_s.size(); ++i) {
      s += (i ? "," : "") + std::to_string(q.points_s[i]);
    }
    s += "]";
  }
  return s;
}

std::string Traffic::forked_line(int shape) { return open_line(shape) + "}"; }

std::string Traffic::scratch_line(int shape) {
  return open_line(shape) + ",\"mode\":\"scratch\"}";
}

std::vector<Scheduled> make_schedule(Traffic& traffic, double q_rate,
                                     double i_rate, double duration_s,
                                     std::uint64_t seed) {
  istc::Rng rng(0xA11CEull ^ (seed * 0x9E3779B97F4A7C15ull));
  std::vector<std::pair<double, bool>> due;  // (time, is_query)
  const auto arrivals = [&](double rate, bool query) {
    for (double t = 0;
         (t += -std::log(1.0 - rng.uniform()) / rate) < duration_s;) {
      due.emplace_back(t, query);
    }
  };
  arrivals(q_rate, true);
  arrivals(i_rate, false);
  std::sort(due.begin(), due.end());
  std::vector<Scheduled> out;
  out.reserve(due.size());
  for (const auto& [t, query] : due) {
    out.push_back({t, query ? traffic.next_query() : traffic.next_ingest()});
  }
  return out;
}

}  // namespace perfbench
