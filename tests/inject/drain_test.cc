// The one shard drain behind run_campaign's threads and the service's
// forked workers: shard_ranges tiles the campaign order, a worker
// visits its own shards first and then steals the rest, and atomic
// claims hand every position out exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "check/expectations.h"
#include "inject/campaign.h"
#include "inject/injector.h"
#include "profile/profile.h"
#include "trace/trace.h"

namespace kfi::inject {
namespace {

// Claims shards through one atomic flag each, as run_campaign does.
class AtomicClaims {
 public:
  explicit AtomicClaims(std::size_t shards) : claimed_(shards) {}
  bool operator()(std::uint64_t s) {
    return !claimed_[s].exchange(true);
  }

 private:
  std::vector<std::atomic<bool>> claimed_;
};

TEST(Drain, ShardRangesTileTheOrderWithoutEmptyRanges) {
  EXPECT_TRUE(shard_ranges(0, 4).empty());
  for (const unsigned workers : {1u, 2u, 4u, 8u, 64u}) {
    for (const std::uint64_t total :
         {std::uint64_t{1}, std::uint64_t{3}, std::uint64_t{4} * workers - 1,
          std::uint64_t{1000}, std::uint64_t{1031}}) {
      const std::vector<ShardRange> ranges = shard_ranges(total, workers);
      EXPECT_EQ(ranges.size(), std::min(kShardsPerWorker * workers, total))
          << "total " << total << " workers " << workers;
      std::uint64_t next = 0;
      for (const auto& [begin, end] : ranges) {
        EXPECT_EQ(begin, next);
        EXPECT_LT(begin, end) << "empty range at " << begin;
        next = end;
      }
      EXPECT_EQ(next, total);
    }
  }
}

TEST(Drain, OneWorkerVisitsShardsInAscendingOrder) {
  std::vector<std::uint64_t> visited;
  const std::uint64_t steals = drain_shards(
      9, 0, 1, [](std::uint64_t) { return true; },
      [&](std::uint64_t s, bool stolen) {
        EXPECT_FALSE(stolen);
        visited.push_back(s);
      });
  EXPECT_EQ(steals, 0u);
  EXPECT_EQ(visited, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

// kfibench's TickRecorder charges the run behind progress tick `done`
// to campaign_order position done - 1, so at one thread the ticks must
// follow that order.  The trace's trigger event names the instruction
// each run just hit.
TEST(Drain, OneThreadProgressTicksFollowCampaignOrder) {
  InjectorOptions options;
  options.trace_capacity = 1 << 16;
  Injector injector(options);
  const profile::ProfileResult& prof = profile::default_profile();
  CampaignConfig config = check::smoke_config(Campaign::RandomNonBranch);
  config.functions = {"pipe_read"};
  const std::vector<InjectionSpec> targets =
      campaign_targets(prof, config, nullptr);
  const std::vector<std::size_t> order = campaign_order(injector, targets);
  ASSERT_GT(order.size(), kShardsPerWorker);

  std::size_t ticks = 0;
  std::size_t checked = 0;
  config.progress = [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(done, ++ticks);
    EXPECT_EQ(total, targets.size());
    for (const trace::Event& e : injector.trace()->events()) {
      if (e.kind != trace::EventKind::InjectTrigger) continue;
      EXPECT_EQ(e.a, targets[order[done - 1]].instr_addr) << "tick " << done;
      ++checked;
      break;
    }
  };
  const CampaignRun run = run_campaign(injector, prof, config);
  EXPECT_EQ(ticks, targets.size());
  EXPECT_GT(checked, targets.size() / 2);
  EXPECT_EQ(run.stats.shards, kShardsPerWorker);
  EXPECT_EQ(run.stats.steals, 0u);
}

TEST(Drain, WorkerWithIdlePeersDrainsEveryShardAndCountsSteals) {
  // Worker 1 of 3; workers 0 and 2 never run.  It takes its own shards
  // first, then every other shard in ascending order.
  constexpr std::uint64_t kShards = 10;
  AtomicClaims claim(kShards);
  std::vector<std::uint64_t> visited;
  std::uint64_t stolen_seen = 0;
  const std::uint64_t steals = drain_shards(
      kShards, 1, 3, [&](std::uint64_t s) { return claim(s); },
      [&](std::uint64_t s, bool stolen) {
        EXPECT_EQ(stolen, s % 3 != 1) << "shard " << s;
        if (stolen) ++stolen_seen;
        visited.push_back(s);
      });
  EXPECT_EQ(visited,
            (std::vector<std::uint64_t>{1, 4, 7, 0, 2, 3, 5, 6, 8, 9}));
  EXPECT_EQ(steals, 7u);
  EXPECT_EQ(stolen_seen, steals);
}

TEST(Drain, ConcurrentAtomicClaimsRunEveryPositionExactlyOnce) {
  constexpr unsigned kWorkers = 8;
  const std::vector<ShardRange> shards = shard_ranges(1000, kWorkers);
  for (int round = 0; round < 20; ++round) {
    AtomicClaims claim(shards.size());
    std::vector<std::atomic<int>> taken(1000);
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> stolen_runs{0};
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        steals += drain_shards(
            shards.size(), w, kWorkers,
            [&](std::uint64_t s) { return claim(s); },
            [&](std::uint64_t s, bool stolen) {
              if (stolen) ++stolen_runs;
              for (std::uint64_t i = shards[s].first; i < shards[s].second;
                   ++i) {
                taken[i].fetch_add(1, std::memory_order_relaxed);
              }
            });
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t i = 0; i < taken.size(); ++i) {
      ASSERT_EQ(taken[i].load(), 1) << "position " << i << " round " << round;
    }
    EXPECT_EQ(steals.load(), stolen_runs.load());
  }
}

}  // namespace
}  // namespace kfi::inject
