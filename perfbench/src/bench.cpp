#include "bench.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/stats.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  return v.empty() ? 0.0 : istc::Summary(std::move(v)).quantile(q);
}

double median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : istc::median_of(v);
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0;
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

istc::PoolStats PoolDelta::end() const {
  istc::PoolStats now = istc::ThreadPool::global_stats();
  now.pools_created -= before.pools_created;
  now.tasks_submitted -= before.tasks_submitted;
  now.tasks_executed -= before.tasks_executed;
  return now;
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    // The first failures name themselves; the count covers the rest.
    if (++failed_ <= 20) std::printf("FAILED: %s\n", what.c_str());
  }
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
  std::printf("%-40s %14.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::note(const std::string& name, double value,
                  const std::string& unit) {
  std::printf("  (%s %.6g %s)\n", name.c_str(), value, unit.c_str());
}

double Report::value(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

std::string Report::serialize() const {
  std::ostringstream out;
  out.precision(17);
  out << "A " << attempted_ << ' ' << failed_ << '\n';
  for (const auto& [name, v] : metrics_) {
    out << "M " << name << ' ' << v.unit << ' ' << v.value << '\n';
  }
  return out.str();
}

void Report::absorb(const std::string& text) {
  std::istringstream in(text);
  std::string tag;
  while (in >> tag) {
    if (tag == "A") {
      std::uint64_t a = 0, f = 0;
      in >> a >> f;
      attempted_ += a;
      failed_ += f;
    } else if (tag == "M") {
      std::string name, unit;
      double value = 0;
      in >> name >> unit >> value;
      metrics_[name] = {value, unit};
    }
  }
}

void Report::finish() const {
  if (failed_ > 20) std::printf("FAILED: %llu checks in all\n",
                                static_cast<unsigned long long>(failed_));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed_ == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    // JSON has no NaN/inf; a non-finite measurement is reported as -1 so
    // the line stays parseable and the value is visibly wrong.
    const double value = std::isfinite(v.value) ? v.value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, v.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
