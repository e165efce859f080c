#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "bench/bench_util.hpp"
#include "metrics/json_rows.hpp"

/// The BENCH_*.json row writer. These files are the durable perf record
/// (they survive repo re-anchors), so malformed rows are silent data loss.
namespace et::test {
namespace {

TEST(JsonRows, LongConfigNamesAreNeverTruncated) {
  // Regression: rows used to be formatted into a fixed 256-byte snprintf
  // buffer. A sweep config long enough to overflow it (kernel + tile grid
  // + fault plan + knobs) was silently truncated — the row lost its
  // closing brace and the whole BENCH file stopped parsing.
  const std::string config(300, 'k');
  metrics::JsonRows rows;
  rows.add(config, 7, "qps", 123456.0);

  const std::string out = rows.render();
  EXPECT_NE(out.find(config), std::string::npos)
      << "the full 300-char config string must survive into the row";
  EXPECT_NE(out.find("\"value\": 123456"), std::string::npos);
  EXPECT_NE(out.find("}"), std::string::npos);
  // Structurally complete JSON: one row object, closed array.
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.substr(out.size() - 2), "]\n");
  EXPECT_NE(out.find("{\"config\": \"" + config + "\", \"seed\": 7"),
            std::string::npos);
}

TEST(JsonRows, NonFiniteValuesRenderAsNull) {
  // JSON has no NaN/Inf literal; a NaN metric (e.g. mean_error of a run
  // with zero reports) must render as null, not as the literal "nan"
  // (which breaks every JSON parser downstream).
  metrics::JsonRows rows;
  rows.add("empty-track", 1, "mean_error",
           std::numeric_limits<double>::quiet_NaN());
  rows.add("overflow", 1, "ratio",
           std::numeric_limits<double>::infinity());
  rows.add("fine", 1, "qps", 2.5);

  const std::string out = rows.render();
  EXPECT_NE(out.find("\"metric\": \"mean_error\", \"value\": null"),
            std::string::npos);
  EXPECT_NE(out.find("\"metric\": \"ratio\", \"value\": null"),
            std::string::npos);
  EXPECT_NE(out.find("\"metric\": \"qps\", \"value\": 2.5"),
            std::string::npos);
  EXPECT_EQ(out.find("nan"), std::string::npos);
  EXPECT_EQ(out.find("inf"), std::string::npos);
}

TEST(JsonRows, RowsRenderInInsertionOrderWithCommas) {
  metrics::JsonRows rows;
  EXPECT_TRUE(rows.empty());
  rows.add("a", 1, "m", 1.0);
  rows.add("b", 2, "m", 2.0);
  const std::string out = rows.render();
  const auto a = out.find("\"config\": \"a\"");
  const auto b = out.find("\"config\": \"b\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_NE(out.find("},\n"), std::string::npos)
      << "rows are comma-separated";
}

TEST(KernelSelector, AcceptsTheFourDocumentedForms) {
  sim::KernelConfig kernel;

  EXPECT_TRUE(bench::parse_kernel_selector("", &kernel));
  EXPECT_FALSE(kernel.use_parallel_kernel);

  EXPECT_TRUE(bench::parse_kernel_selector("serial", &kernel));
  EXPECT_FALSE(kernel.use_parallel_kernel);

  EXPECT_TRUE(bench::parse_kernel_selector("parallel", &kernel));
  EXPECT_TRUE(kernel.use_parallel_kernel);
  EXPECT_EQ(kernel.threads, sim::KernelConfig{}.threads);

  EXPECT_TRUE(bench::parse_kernel_selector("parallel:8", &kernel));
  EXPECT_TRUE(kernel.use_parallel_kernel);
  EXPECT_EQ(kernel.threads, 8u);
}

TEST(KernelSelector, SelectorResetsStaleConfigState) {
  // The parser owns the whole config: a previous parallel selection must
  // not leak threads/flags into a later "serial" parse.
  sim::KernelConfig kernel;
  ASSERT_TRUE(bench::parse_kernel_selector("parallel:16", &kernel));
  ASSERT_TRUE(bench::parse_kernel_selector("serial", &kernel));
  EXPECT_FALSE(kernel.use_parallel_kernel);
  EXPECT_EQ(kernel.threads, sim::KernelConfig{}.threads);
}

TEST(KernelSelector, RejectsZeroNegativeAndGarbageThreadCounts) {
  // Regression: the old chaos_sweep-local parser accepted "parallel:0" and
  // "parallel:junk" by silently falling back to the default thread count —
  // the sweep then benchmarked a configuration nobody asked for.
  sim::KernelConfig kernel;
  for (const char* bad :
       {"parallel:0", "parallel:-3", "parallel:abc", "parallel:2junk",
        "parallel:", "parallel: 4", "parallel:4.5",
        "parallel:99999999999999999999"}) {
    std::string error;
    EXPECT_FALSE(bench::parse_kernel_selector(bad, &kernel, &error))
        << "'" << bad << "' must be rejected";
    EXPECT_NE(error.find("thread count"), std::string::npos)
        << "'" << bad << "' should explain what a valid count looks like, "
        << "got: " << error;
  }
}

TEST(KernelSelector, RejectsUnknownSelectorsWithTheValidList) {
  sim::KernelConfig kernel;
  for (const char* bad : {"seria", "PARALLEL:4", "tiled", "parallel4"}) {
    std::string error;
    EXPECT_FALSE(bench::parse_kernel_selector(bad, &kernel, &error))
        << "'" << bad << "' must be rejected";
    EXPECT_NE(error.find("expected serial, parallel, or parallel:N"),
              std::string::npos)
        << "the error should list the valid selectors, got: " << error;
  }
}

TEST(KernelSelector, RejectsTheRemovedLegacyOrderByName) {
  sim::KernelConfig kernel;
  std::string error;
  EXPECT_FALSE(bench::parse_kernel_selector("legacy", &kernel, &error));
  EXPECT_NE(error.find("legacy (time, FIFO) event order was removed"),
            std::string::npos)
      << "the error should name the removed order, got: " << error;
  EXPECT_NE(error.find("serial, parallel, or parallel:N"), std::string::npos)
      << "and list the valid selectors, got: " << error;
}

}  // namespace
}  // namespace et::test
