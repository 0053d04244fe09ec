// Tests of the benchmark's own helpers: percentiles and the ten-beyond
// rule, span self time, the metric-name validator, and the seeded input
// generator. Exits 1 on the first failed check.
#include <cstdio>
#include <limits>
#include <vector>

#include "gen.hpp"
#include "metrics.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(double(i));
  return v;
}

void test_percentile() {
  using perfbench::percentile;
  // Nearest rank: p50 of 1..100 is 50, p99 is 99 with one sample beyond.
  const auto hundred = ramp(100);
  CHECK(percentile(hundred, 0.50).value == 50);
  CHECK(percentile(hundred, 0.50).beyond == 50);
  CHECK(percentile(hundred, 0.99).value == 99);
  CHECK(percentile(hundred, 0.99).beyond == 1);
  CHECK(!percentile(hundred, 0.99).reportable);
  // 1000 samples leave exactly ten beyond the p99: reportable.
  const auto thousand = ramp(1000);
  CHECK(percentile(thousand, 0.99).value == 990);
  CHECK(percentile(thousand, 0.99).beyond == 10);
  CHECK(percentile(thousand, 0.99).reportable);
  // 999 samples leave nine: not.
  CHECK(!percentile(ramp(999), 0.99).reportable);
  CHECK(percentile(ramp(1), 0.5).value == 1);
  CHECK(!percentile({}, 0.5).reportable);
  CHECK(percentile(ramp(3), 1.0).value == 3);

  // A failure enters as its caller's wait: more failures make a worse,
  // still reportable tail.
  auto with_fail = ramp(985);
  with_fail.insert(with_fail.end(), 15, 100000.0);
  CHECK(percentile(with_fail, 0.99).value == 100000);
  CHECK(percentile(with_fail, 0.99).reportable);
  with_fail = ramp(990);
  with_fail.insert(with_fail.end(), 10, 100000.0);
  CHECK(percentile(with_fail, 0.99).value == 990);

  CHECK(perfbench::median_of({3, 1, 2}) == 2);
  CHECK(perfbench::median_of({4, 1, 2, 3}) == 2.5);
}

void test_self_time() {
  using perfbench::Layer;
  perfbench::SpanStack stack;
  // run [0, 100) holds done [10, 40) which holds call [20, 35), and
  // handler [50, 60).
  stack.open(Layer::run, 0);
  stack.open(Layer::done, 10);
  CHECK(stack.current(Layer::none) == Layer::done);
  stack.open(Layer::call, 20);
  stack.close(35);
  stack.close(40);
  stack.open(Layer::handler, 50);
  stack.close(60);
  stack.close(100);
  const auto& t = stack.totals();
  CHECK(t[std::size_t(Layer::run)].self_ns == 100 - 30 - 10);
  CHECK(t[std::size_t(Layer::done)].self_ns == 30 - 15);
  CHECK(t[std::size_t(Layer::call)].self_ns == 15);
  CHECK(t[std::size_t(Layer::handler)].self_ns == 10);
  // Self times partition the root span.
  std::uint64_t sum = 0;
  for (const auto& layer : t) sum += layer.self_ns;
  CHECK(sum == stack.root_ns());
  CHECK(stack.root_ns() == 100);
  CHECK(stack.current(Layer::run) == Layer::run);  // all closed

  // Allocations go to the innermost open span.
  stack.open(Layer::call, 200);
  stack.note_alloc(stack.current(Layer::run), 64);
  stack.close(210);
  stack.note_alloc(stack.current(Layer::run), 32);
  CHECK(t[std::size_t(Layer::call)].allocs == 1);
  CHECK(t[std::size_t(Layer::call)].alloc_bytes == 64);
  CHECK(t[std::size_t(Layer::run)].allocs == 1);
  CHECK(t[std::size_t(Layer::run)].alloc_bytes == 32);

  stack.reset();
  CHECK(stack.root_ns() == 0);
  CHECK(stack.totals()[std::size_t(Layer::run)].self_ns == 0);
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  CHECK(valid_metric_name("sim_rpc_per_wall_s"));
  CHECK(valid_metric_name("crypto.gcm_seal_ns_per_kib"));
  CHECK(valid_metric_name("a-b.c_d9"));
  CHECK(valid_metric_name("9lives"));
  CHECK(!valid_metric_name(""));
  CHECK(!valid_metric_name("_leading"));
  CHECK(!valid_metric_name(".leading"));
  CHECK(!valid_metric_name("has space"));
  CHECK(!valid_metric_name("slash/no"));
  CHECK(!valid_metric_name("quote\""));
  CHECK(!valid_metric_name(std::string(65, 'a')));
  CHECK(valid_metric_name(std::string(64, 'a')));
  CHECK(perfbench::valid_unit("1/s"));
  CHECK(perfbench::valid_unit("%"));
  CHECK(!perfbench::valid_unit("µs"));

  perfbench::MetricSet set;
  CHECK(set.add("setup_s", 0.5, "s"));
  CHECK(!set.add("setup_s", 0.6, "s"));
  CHECK(!set.add("bad name", 1, "s"));
  CHECK(!set.add("nan", std::numeric_limits<double>::quiet_NaN(), "s"));
  CHECK(!set.ok());
  CHECK(set.metrics().size() == 1);
  CHECK(set.json() == "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}");
}

void test_generator() {
  // Sizes stay within +-50 % of nominal and reach both ends.
  perfbench::SeededRng rng(42);
  std::size_t low = 1000, high = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::size_t s = perfbench::draw_size(rng, 64);
    low = std::min(low, s);
    high = std::max(high, s);
  }
  CHECK(low == 32);
  CHECK(high == 96);

  // Same seed, same inputs; another seed, other inputs.
  const perfbench::InputPlan a(7, 50, 2048, 512);
  const perfbench::InputPlan b(7, 50, 2048, 512);
  const perfbench::InputPlan c(8, 50, 2048, 512);
  bool same = true, differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a.request(i) == b.request(i) &&
           a.plan(i).response_len == b.plan(i).response_len;
    const auto ra = a.response(i), rb = b.response(i);
    same = same && std::equal(ra.begin(), ra.end(), rb.begin(), rb.end());
    differs = differs || a.request(i) != c.request(i);
    CHECK(a.plan(i).request_len >= 1024 && a.plan(i).request_len <= 3072);
    CHECK(a.plan(i).response_len >= 256 && a.plan(i).response_len <= 768);
  }
  CHECK(same);
  CHECK(differs);

  // Requests carry their index and verify; a flipped byte does not.
  auto request = a.request(17);
  CHECK(a.index_of(request) == 17);
  CHECK(a.request_matches(request));
  request.back() ^= 1;
  CHECK(!a.request_matches(request));
  request.pop_back();
  CHECK(!a.request_matches(request));
  CHECK(a.index_of(std::vector<std::uint8_t>(4, 0)) == a.size());

  const auto response = a.response(3);
  std::vector<std::uint8_t> copy(response.begin(), response.end());
  CHECK(a.response_matches(3, copy));
  copy[0] ^= 1;
  CHECK(!a.response_matches(3, copy));
  copy[0] ^= 1;
  copy.pop_back();
  CHECK(!a.response_matches(3, copy));

  // Tiny nominal sizes still leave room for the index.
  const perfbench::InputPlan tiny(1, 100, 4, 4);
  for (std::size_t i = 0; i < tiny.size(); ++i) {
    CHECK(tiny.plan(i).request_len >= perfbench::kIndexBytes);
    CHECK(tiny.request_matches(tiny.request(i)));
  }
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_metric_names();
  test_generator();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench helpers: all checks passed\n");
  return 0;
}
