#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/json.hpp"
#include "service/session.hpp"

/// \file test_service_property.cpp
/// Property: service answers are pure functions of (query, baseline epoch).
/// The same query against the same epoch must return byte-identical JSON no
/// matter how queries are ordered, whether they run concurrently, and
/// whether no-op ingests (blanks, filtered records, malformed lines) are
/// interleaved between them, and while another client ingests.

namespace istc::service {
namespace {

std::string swf_line(SimTime submit, Seconds runtime, int cpus,
                     Seconds estimate) {
  return "1 " + std::to_string(submit) + " 0 " + std::to_string(runtime) +
         " " + std::to_string(cpus) + " -1 -1 " + std::to_string(cpus) + " " +
         std::to_string(estimate) + " -1 1 3 2 -1 -1 -1 -1 -1";
}

std::string ingest_request(const std::string& line) {
  return "{\"op\":\"ingest\",\"line\":\"" + json_escape(line) + "\"}";
}

SessionConfig ross_config() {
  SessionConfig cfg;
  cfg.site = cluster::Site::kRoss;
  cfg.snapshot_interval = 2000;
  return cfg;
}

void preload(Session& session, int jobs) {
  for (int i = 0; i < jobs; ++i) {
    const std::string reply = session.handle_line(ingest_request(
        swf_line(100 + 60 * i, 300 + 40 * (i % 7), 8 + 8 * (i % 6), 900)));
    ASSERT_NE(reply.find("\"accepted\":true"), std::string::npos) << reply;
  }
}

std::vector<std::string> query_set() {
  return {
      "{\"op\":\"whatif\",\"jobs\":2,\"cpus\":32,\"runtime_s\":300,"
      "\"horizon_s\":7200}",
      "{\"op\":\"whatif\",\"jobs\":5,\"cpus\":16,\"runtime_s\":600,"
      "\"horizon_s\":10800,\"points_s\":[0,1800]}",
      "{\"op\":\"whatif\",\"class\":\"interstitial\",\"jobs\":4,\"cpus\":8,"
      "\"runtime_s\":204,\"horizon_s\":20000}",
      "{\"op\":\"whatif\",\"jobs\":1,\"cpus\":128,\"runtime_s\":450,"
      "\"horizon_s\":7200,\"mode\":\"scratch\"}",
  };
}

TEST(ServiceProperty, AnswersAreIndependentOfQueryOrder) {
  const auto queries = query_set();

  Session forward(ross_config());
  preload(forward, 12);
  std::vector<std::string> first;
  for (const auto& q : queries) first.push_back(forward.handle_line(q));

  // Same session, queries replayed in reverse: same epoch, same bytes.
  std::vector<std::string> again(queries.size());
  for (std::size_t i = queries.size(); i-- > 0;) {
    again[i] = forward.handle_line(queries[i]);
  }
  EXPECT_EQ(first, again);

  // A freshly built session over the same tail answers identically too.
  Session rebuilt(ross_config());
  preload(rebuilt, 12);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(rebuilt.handle_line(queries[i]), first[i]) << queries[i];
  }
}

TEST(ServiceProperty, NoOpIngestsDoNotPerturbAnswers) {
  const auto queries = query_set();
  Session session(ross_config());
  preload(session, 12);

  std::vector<std::string> baseline;
  for (const auto& q : queries) baseline.push_back(session.handle_line(q));
  const std::uint64_t hash_before = session.baseline_hash();

  const std::vector<std::string> noops = {
      ingest_request(""),
      ingest_request("; swf header comment"),
      ingest_request("2 500 0 -1 8 -1 -1 8 240 -1 0 1 1"),  // filtered status
      ingest_request("total garbage"),
      ingest_request(swf_line(300, 300, 1000000, 600)),  // infeasible
      "{\"op\":\"status\"}",
      "not even json",
  };
  for (std::size_t i = 0; i < queries.size(); ++i) {
    session.handle_line(noops[i % noops.size()]);
    session.handle_line(noops[(i + 3) % noops.size()]);
    EXPECT_EQ(session.handle_line(queries[i]), baseline[i]) << queries[i];
  }
  EXPECT_EQ(session.epoch(), 12u);
  EXPECT_EQ(session.baseline_hash(), hash_before);
}

TEST(ServiceProperty, ConcurrentAnswersMatchSerialAnswers) {
  const auto queries = query_set();
  Session session(ross_config());
  preload(session, 12);

  std::vector<std::string> serial;
  for (const auto& q : queries) serial.push_back(session.handle_line(q));

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<std::vector<std::pair<std::size_t, std::string>>> got(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&queries, &session, &got, t] {
      // Each thread walks the query set in a different shuffled order so
      // the interleavings differ across threads.
      std::mt19937 rng(static_cast<unsigned>(t) * 7919u + 17u);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const std::size_t pick =
              (i + static_cast<std::size_t>(rng())) % queries.size();
          got[static_cast<std::size_t>(t)].emplace_back(
              pick, session.handle_line(queries[pick]));
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  for (const auto& thread_replies : got) {
    ASSERT_EQ(thread_replies.size(),
              static_cast<std::size_t>(kRounds) * queries.size());
    for (const auto& [pick, reply] : thread_replies) {
      EXPECT_EQ(reply, serial[pick]);
    }
  }
}

/// The epoch a whatif reply was computed against.
std::uint64_t reply_epoch(const std::string& reply) {
  const ParseResult p = parse(reply);
  EXPECT_TRUE(p.ok()) << reply;
  return static_cast<std::uint64_t>(p.value.num_or("epoch", -1));
}

TEST(SessionConcurrency, IngestWithStragglersUnderForkedQueries) {
  // Multi-point forked queries: each reads every point's reference arm
  // from the session's memo while the ingesting client keeps bumping the
  // epoch (and clearing that memo).  Stragglers force snapshot rewinds.
  const std::vector<std::string> queries = {
      "{\"op\":\"whatif\",\"jobs\":5,\"cpus\":16,\"runtime_s\":600,"
      "\"horizon_s\":10800,\"points_s\":[0,1800]}",
      "{\"op\":\"whatif\",\"jobs\":3,\"cpus\":32,\"runtime_s\":300,"
      "\"horizon_s\":7200,\"points_s\":[0,600,1200]}",
  };
  std::vector<std::string> ingests;
  for (int i = 0; i < 10; ++i) {
    // Every third line lands behind the frontier.
    const SimTime submit = i % 3 == 2 ? 200 + 90 * i : 900 + 120 * i;
    ingests.push_back(
        ingest_request(swf_line(submit, 240 + 30 * i, 8 + 16 * (i % 4), 900)));
  }

  // Serial oracle: every query's reply at every epoch the race can see.
  std::map<std::uint64_t, std::vector<std::string>> serial;
  {
    Session session(ross_config());
    preload(session, 12);
    for (std::size_t k = 0; k <= ingests.size(); ++k) {
      std::vector<std::string>& replies = serial[session.epoch()];
      for (const auto& q : queries) replies.push_back(session.handle_line(q));
      if (k < ingests.size()) session.handle_line(ingests[k]);
    }
  }
  ASSERT_EQ(serial.size(), ingests.size() + 1);

  Session session(ross_config());
  preload(session, 12);
  constexpr int kQueryThreads = 4;
  std::atomic<bool> ingest_done{false};
  std::atomic<int> answered{0};
  std::vector<std::vector<std::pair<std::size_t, std::string>>> got(
      kQueryThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kQueryThreads; ++t) {
    clients.emplace_back([&, t] {
      auto& mine = got[static_cast<std::size_t>(t)];
      for (std::size_t i = static_cast<std::size_t>(t); !ingest_done.load();
           ++i) {
        const std::size_t pick = i % queries.size();
        mine.emplace_back(pick, session.handle_line(queries[pick]));
        answered.fetch_add(1);
      }
    });
  }
  std::vector<std::string> ingest_replies;
  for (const auto& line : ingests) {
    // Let a few queries land in every epoch before moving on.
    const int before = answered.load();
    while (answered.load() < before + kQueryThreads) std::this_thread::yield();
    ingest_replies.push_back(session.handle_line(line));
  }
  ingest_done.store(true);
  for (auto& c : clients) c.join();

  for (const auto& reply : ingest_replies) {
    EXPECT_NE(reply.find("\"accepted\":true"), std::string::npos) << reply;
  }
  EXPECT_GT(session.rewinds(), 0u);
  std::size_t total = 0;
  for (const auto& replies : got) {
    for (const auto& [pick, reply] : replies) {
      ++total;
      ASSERT_EQ(reply.find("\"error\""), std::string::npos) << reply;
      const auto it = serial.find(reply_epoch(reply));
      ASSERT_NE(it, serial.end()) << reply;
      EXPECT_EQ(reply, it->second[pick]);
    }
  }
  EXPECT_GE(total, ingests.size() * kQueryThreads);
}

TEST(ServiceProperty, EpochBumpChangesTheBaselineAdvertisedToClients) {
  Session session(ross_config());
  preload(session, 6);
  const std::string q =
      "{\"op\":\"whatif\",\"jobs\":2,\"cpus\":32,\"runtime_s\":300}";
  const std::string before = session.handle_line(q);
  session.handle_line(ingest_request(swf_line(5000, 900, 512, 1800)));
  const std::string after = session.handle_line(q);
  EXPECT_NE(before, after);
  EXPECT_NE(before.find("\"epoch\":6"), std::string::npos);
  EXPECT_NE(after.find("\"epoch\":7"), std::string::npos);
}

}  // namespace
}  // namespace istc::service
