// Virtual clock (advancing backwards is a no-op), cost model, and the
// statistics pipeline the figures use.
#include <gtest/gtest.h>

#include "sim/cost_model.hpp"
#include "sim/virtual_clock.hpp"
#include "stats/box_plot.hpp"
#include "stats/stats.hpp"

using namespace cherinet;
using sim::Ns;

TEST(VirtualClock, AdvanceIsMonotone) {
  sim::VirtualClock c;
  EXPECT_EQ(c.now(), Ns{0});
  // Deadlines arrive out of order; the clock keeps the latest of them.
  for (const std::int64_t t : {7, 3, 12, 12, 9, 40, 1}) {
    const Ns before = c.now();
    c.advance_to(Ns{t});
    EXPECT_EQ(c.now(), std::max(before, Ns{t}));
  }
  EXPECT_EQ(c.now(), Ns{40});
  c.advance_to(Ns{5});  // going backwards is a no-op
  EXPECT_EQ(c.now(), Ns{40});
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
