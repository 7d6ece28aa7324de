// Virtual clock, time arbiter (conservative advancement, kicks, deadlock
// detection), cost model, and the statistics pipeline the figures use.
#include <gtest/gtest.h>

#include <thread>

#include "sim/cost_model.hpp"
#include "sim/time_arbiter.hpp"
#include "sim/virtual_clock.hpp"
#include "stats/box_plot.hpp"
#include "stats/stats.hpp"

using namespace cherinet;
using sim::Ns;

TEST(VirtualClock, MonotoneUnderRacingAdvances) {
  sim::VirtualClock c;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&c, t] {
      for (int i = 0; i < 10000; ++i) {
        c.advance_to(Ns{i * 4 + t});
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.now(), Ns{39999 / 4 * 4 + 3});
  c.advance_to(Ns{5});  // going backwards is a no-op
  EXPECT_GT(c.now(), Ns{5});
}

TEST(TimeArbiter, AdvancesToEarliestDeadlineWhenAllParked) {
  sim::VirtualClock clock;
  sim::TimeArbiter arb(clock);
  // idle_until may return early on a kick — and every advance kicks, so a
  // participant whose prepare() raced the other's advance re-parks, as
  // every polling loop does. The test completes only if the arbiter keeps
  // advancing to the earliest parked deadline.
  const auto park_until = [&](sim::Participant& p, Ns t) {
    while (clock.now() < t) p.idle_until(t);
  };
  std::thread t1([&] {
    sim::Participant p(arb, "t1");
    park_until(p, Ns{1000});
    EXPECT_GE(clock.now(), Ns{1000});
  });
  std::thread t2([&] {
    sim::Participant p(arb, "t2");
    park_until(p, Ns{5000});
    EXPECT_GE(clock.now(), Ns{5000});
  });
  t1.join();
  t2.join();
  EXPECT_GE(clock.now(), Ns{5000});
}

TEST(TimeArbiter, KickWakesParkedParticipant) {
  sim::VirtualClock clock;
  sim::TimeArbiter arb(clock);
  std::atomic<bool> woke{false};
  std::thread t([&] {
    sim::Participant p(arb, "waiter");
    // Parked without a deadline: only a kick can wake us. A second
    // participant (the main thread's) prevents deadlock detection.
    sim::Participant keepalive(arb, "keepalive");
    const auto token = p.prepare();
    (void)keepalive;
    const bool kicked = p.wait(token, std::nullopt);
    EXPECT_TRUE(kicked);
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  arb.kick();
  t.join();
  EXPECT_TRUE(woke);
}

TEST(TimeArbiter, MissedKickRaceIsClosedByPrepareToken) {
  sim::VirtualClock clock;
  sim::TimeArbiter arb(clock);
  sim::Participant p(arb, "p");
  const auto token = p.prepare();
  arb.kick();  // kick lands between prepare and wait
  EXPECT_TRUE(p.wait(token, std::nullopt));  // returns immediately
}

TEST(TimeArbiter, AllParkedWithoutDeadlineIsDeadlock) {
  sim::VirtualClock clock;
  sim::TimeArbiter arb(clock);
  sim::Participant p(arb, "only");
  EXPECT_THROW((void)p.idle_until(std::nullopt), sim::SimDeadlock);
}

TEST(CostModel, ChargeBurnsApproximatelyRequestedTime) {
  const auto cm = sim::CostModel::morello();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) cm.charge(std::chrono::microseconds(10));
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(dt, std::chrono::microseconds(900));
  // Disabled model burns nothing measurable.
  const auto d0 = std::chrono::steady_clock::now();
  sim::CostModel::disabled().charge(std::chrono::milliseconds(100));
  EXPECT_LT(std::chrono::steady_clock::now() - d0,
            std::chrono::milliseconds(50));
}

// ---------------------------------------------------------------- stats

TEST(Stats, QuantilesMatchReference) {
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 0.25), 3.25);  // type-7
}

TEST(Stats, SummaryMomentsAndOrder) {
  std::vector<double> xs{4, 1, 3, 2, 5};
  const auto s = stats::summarize(xs);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, 1.5811, 1e-3);
}

TEST(Stats, IqrFilterRemovesPaperStyleOutliers) {
  // A tight distribution plus far outliers (the ~10% the paper removes).
  std::vector<double> xs;
  for (int i = 0; i < 90; ++i) xs.push_back(100.0 + (i % 7));
  for (int i = 0; i < 10; ++i) xs.push_back(10000.0);
  const auto filtered = stats::iqr_filter(xs);
  EXPECT_EQ(filtered.size(), 90u);
  for (double x : filtered) EXPECT_LT(x, 1000.0);
}

TEST(Stats, IqrFilterKeepsCleanData) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_EQ(stats::iqr_filter(xs).size(), 5u);
  EXPECT_TRUE(stats::iqr_filter({}).empty());
}

TEST(Stats, LatencyRecorderReportPipeline) {
  stats::LatencyRecorder rec(128);
  for (int i = 0; i < 100; ++i) rec.add(50.0 + i % 5);
  rec.add(1e9);  // one wild outlier
  const auto s = rec.report();
  EXPECT_EQ(s.n, 100u);
  EXPECT_LT(s.max, 100.0);
}

TEST(BoxPlot, RendersAllSeriesAndLegend) {
  std::vector<double> a{100, 110, 120, 130, 140};
  std::vector<double> b{200, 210, 220, 230, 240};
  const std::string plot = stats::render_box_plots(
      {{"fast", stats::summarize(a)}, {"slow", stats::summarize(b)}}, 60);
  EXPECT_NE(plot.find("fast"), std::string::npos);
  EXPECT_NE(plot.find("slow"), std::string::npos);
  EXPECT_NE(plot.find('#'), std::string::npos);  // median marker
  const std::string table = stats::render_summary_table(
      {{"fast", stats::summarize(a)}});
  EXPECT_NE(table.find("median"), std::string::npos);
}
