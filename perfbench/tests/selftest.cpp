// Tests of the benchmark's own arithmetic: quantiles and the span
// self-time rollup. Exits non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_quantiles() {
  using perfbench::quantile;
  CHECK(std::isnan(quantile({}, 0.5)));
  CHECK(near(quantile({7.0}, 0.0), 7.0));
  CHECK(near(quantile({7.0}, 0.9), 7.0));
  // Unsorted input; even size: the median averages the middle pair.
  CHECK(near(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5));
  // Linear interpolation between closest ranks: pos = 0.9 * 3 = 2.7.
  CHECK(near(quantile({4.0, 1.0, 3.0, 2.0}, 0.9), 3.7));
  CHECK(near(quantile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0));
  CHECK(near(quantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0));
  // Out-of-range q clamps.
  CHECK(near(quantile({1.0, 2.0}, 1.5), 2.0));
  // 11 values 0..10: p90 is exactly 9, p50 exactly 5.
  std::vector<double> ramp;
  for (int i = 10; i >= 0; --i) ramp.push_back(i);
  CHECK(near(quantile(ramp, 0.9), 9.0));
  CHECK(near(perfbench::median(ramp), 5.0));
  const std::vector<double> values = {1.0, 2.0, 6.0};
  CHECK(near(perfbench::mean(values), 3.0));
  CHECK(std::isnan(perfbench::mean(std::vector<double>{})));
}

void test_self_times() {
  using perfbench::Span;
  // op [0,100] with children io.load [10,30] and io.parse [20,50] (they
  // overlap: the union covers 40) and core.engine [60,80] holding a
  // grandchild core.sort [65,70]. A child reaching past its parent,
  // sched.check [90,120], covers only [90,100] of it.
  const std::vector<Span> spans = {
      {"op", 0, 100, -1, 1},          // 0
      {"io.load", 10, 30, 0, 1},      // 1
      {"io.parse", 20, 50, 0, 1},     // 2
      {"core.engine", 60, 80, 0, 1},  // 3
      {"core.sort", 65, 70, 3, 1},    // 4
      {"sched.check", 90, 120, 0, 1}, // 5
  };
  const std::vector<perfbench::Nanos> self = perfbench::self_times(spans);
  CHECK(self[0] == 100 - 40 - 20 - 10);
  CHECK(self[1] == 20);
  CHECK(self[2] == 30);
  CHECK(self[3] == 15);
  CHECK(self[4] == 5);
  CHECK(self[5] == 30);

  CHECK(perfbench::layer_of("io.parse") == "io");
  CHECK(perfbench::layer_of("serve.wait") == "serve");
  CHECK(perfbench::layer_of("op") == "bench");

  // Two ops whose children lie inside them: per-layer self times sum to
  // the ops' total duration.
  const std::vector<Span> nested = {
      {"op", 0, 50, -1, 0},           {"io.parse", 5, 25, 0, 0},
      {"core.engine", 25, 45, 0, 0},  {"core.sort", 30, 35, 2, 0},
      {"op", 100, 130, -1, 1},        {"core.engine", 100, 130, 4, 1},
  };
  const perfbench::LayerRollup roll = perfbench::rollup(nested);
  CHECK(roll.roots == 2);
  CHECK(roll.root_ns == 80);
  CHECK(roll.self_ns.at("bench") == 10);
  CHECK(roll.self_ns.at("io") == 20);
  CHECK(roll.self_ns.at("core") == 50);
  perfbench::Nanos total = 0;
  for (const auto& [layer, ns] : roll.self_ns) total += ns;
  CHECK(total == roll.root_ns);
}

void test_recorder_nesting() {
  perfbench::SpanRecorder recorder;
  {
    const perfbench::ScopedSpan op(&recorder, "op", 7);
    const perfbench::ScopedSpan inner(&recorder, "io.load", 7);
  }
  { const perfbench::ScopedSpan untraced(nullptr, "op", 8); }
  const auto& spans = recorder.spans();
  CHECK(spans.size() == 2);
  CHECK(spans[0].parent == -1);
  CHECK(spans[1].parent == 0);
  CHECK(spans[1].op == 7);
  CHECK(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
}

}  // namespace

int main() {
  test_quantiles();
  test_self_times();
  test_recorder_nesting();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench selftest: ok\n");
  return EXIT_SUCCESS;
}
