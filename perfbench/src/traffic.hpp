#pragma once

// The what-if traffic mix, generated from the workload seed and shared by
// the socket driver (whatif.cpp) and the in-process traced run
// (layers.cpp), so both see the same requests.
//
//   - preload: a Ross SWF tail of kPreloadLines in-order lines with a
//     straggler every kStragglerEvery lines (the snapshot/rewind path is
//     part of the baseline under test);
//   - ingest: the tail continues in order, one straggler every
//     kStragglerEvery lines (submit 10 min to 3 h behind the frontier);
//   - queries: the six shapes of bench/whatif_service — single- and
//     multi-point, native and interstitial, narrow and wide — drawn
//     uniformly, so a third of them are multi-point.
//
// The preload length and the straggler cadence are bench/whatif_service's
// too (a 400-line tail, a straggler every ~50 lines).

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

inline constexpr int kPreloadLines = 400;
inline constexpr int kStragglerEvery = 50;
inline constexpr int kQueryShapes = 6;

/// One what-if query shape (the request's fields).
struct QueryShape {
  int jobs;
  int cpus;
  int runtime_s;
  int horizon_s;
  bool interstitial;
  std::vector<int> points_s;  ///< empty: the single default point 0
};
const QueryShape& query_shape(int shape);

struct TrafficItem {
  bool query = false;
  bool straggler = false;   ///< ingest only
  bool multipoint = false;  ///< query only
  int shape = -1;           ///< query only
  std::string line;         ///< the request line, no newline
  std::string swf;          ///< ingest only: the SWF record it carries
};

class Traffic {
 public:
  explicit Traffic(std::uint64_t seed);

  /// The preload tail as SWF lines (what `istc serve --preload` reads);
  /// call once, first.
  std::vector<std::string> preload_swf();

  TrafficItem next_query();
  TrafficItem next_ingest();

  /// The same query shape in scratch mode (the byte-identity reference).
  static std::string scratch_line(int shape);
  static std::string forked_line(int shape);

 private:
  std::string next_swf(bool* straggler);
  static std::string open_line(int shape);

  istc::Rng rng_;
  std::int64_t frontier_ = 0;  ///< newest in-order submit time so far
  int lines_ = 0;
};

/// One request of an open-loop phase, due `due_s` after the phase starts.
struct Scheduled {
  double due_s = 0.0;
  TrafficItem item;
};

/// Poisson queries at q_rate and ingest lines at i_rate (independent
/// users) for duration_s, merged by due time.  The arrival times come
/// from `seed`, the requests from `traffic`.
std::vector<Scheduled> make_schedule(Traffic& traffic, double q_rate,
                                     double i_rate, double duration_s,
                                     std::uint64_t seed);

}  // namespace perfbench
