// Streaming MHI kernel costs (DESIGN.md §13): the encrypt-side g_r cache and
// the batched PEKS test against a standing trapdoor. The headline numbers
// are the two amortization ratios the design claims:
//   * peks_encrypt_cached vs peks_encrypt_cold — the per-epoch
//     hash-to-point + pairing hoisted out of the tag loop;
//   * peks_test_batch vs peks_test_scalar — precomputed Miller loops plus
//     ONE batched final exponentiation across all candidate tags.
// Each row is sampled over kRounds rounds; within a round the two sides of
// each ratio run back to back, alternating which goes first, so a host
// slowdown lands on both. A row reports its median with min/max and
// quartiles; a ratio is the median of the per-round ratios. The batched
// verdicts are checked against the scalar oracle in every round; a report
// is only written if they agree bit-for-bit each time. The end-to-end
// window path (ingestor → hub → hit fetch) is perfbench's mhi_stream
// workload.
//
// Plain main() harness (like bench_ledger): prints a table and, with
// --json-out=PATH, writes BENCH_mhi.json through bench/report.h.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/cipher/drbg.h"
#include "src/core/mhi_stream.h"
#include "src/curve/params.h"
#include "src/ibc/domain.h"
#include "src/peks/peks.h"

using namespace hcpp;

namespace {

constexpr size_t kTags = 64;    // candidate tags per batched test
constexpr size_t kRounds = 7;   // samples per row
// Minimum timed seconds per sample: 7 rounds × 2 × (0.04 + 0.1) ≈ 2 s.
constexpr double kEncryptSeconds = 0.04;
constexpr double kTestSeconds = 0.1;

const char* kDay = "2011-04-12";
const char* kDayKeyword = "day:2011-04-12";

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs `body` (performing `ops` unit operations per call) for at least
/// `min_seconds` and returns ops/sec.
template <typename F>
double measure(double min_seconds, size_t ops, F&& body) {
  size_t total_ops = 0;
  auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    body();
    total_ops += ops;
    elapsed = seconds_since(t0);
  } while (elapsed < min_seconds);
  return static_cast<double>(total_ops) / elapsed;
}

/// Linear-interpolated quantile of `v` (0 ≤ q ≤ 1).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Median, quartiles and range of one row's (or ratio's) samples.
bench::Json spread(const std::vector<double>& v) {
  return bench::Json::object()
      .set("median", quantile(v, 0.5))
      .set("q1", quantile(v, 0.25))
      .set("q3", quantile(v, 0.75))
      .set("min", quantile(v, 0.0))
      .set("max", quantile(v, 1.0));
}

struct Row {
  std::string workload;
  std::string unit;
  std::vector<double> ops_per_sec;  // one sample per round
};

/// One round of a ratio `fast / slow`: both sides timed back to back, the
/// slow side first on even rounds and second on odd ones.
template <typename Slow, typename Fast>
void sample_ratio(size_t round, Row& slow_row, Slow&& slow, Row& fast_row,
                  Fast&& fast, std::vector<double>& ratios) {
  double s = 0.0;
  double f = 0.0;
  if (round % 2 == 0) {
    s = slow();
    f = fast();
  } else {
    f = fast();
    s = slow();
  }
  slow_row.ops_per_sec.push_back(s);
  fast_row.ops_per_sec.push_back(f);
  ratios.push_back(f / s);
}

peks::Variant variant_for(size_t i) {
  return (i % 2 == 0) ? peks::Variant::kBdop : peks::Variant::kRandomized;
}

/// Every 8th tag carries the day keyword the trapdoor searches for; the rest
/// carry distinct misses. Variants alternate so both comparison paths are in
/// the measured mix.
std::vector<peks::PeksCiphertext> make_tags(const ibc::PublicParams& pub,
                                            const std::string& role,
                                            RandomSource& rng) {
  peks::PeksEncryptor enc(pub);
  std::vector<peks::PeksCiphertext> tags;
  tags.reserve(kTags);
  for (size_t i = 0; i < kTags; ++i) {
    std::string kw =
        (i % 8 == 0) ? kDayKeyword : "vitals:kw-" + std::to_string(i);
    tags.push_back(enc.encrypt(role, kw, rng, variant_for(i)));
  }
  return tags;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_out = bench::json_out_arg(argc, argv);

  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kProduction);
  cipher::Drbg rng(to_bytes("bench-mhi"));
  ibc::Domain domain(ctx, rng);
  const std::string role =
      core::mhi_role_id(kDay, "emergency", "gainesville");
  curve::Point role_key = domain.extract(role);
  peks::Trapdoor td = peks::peks_trapdoor(ctx, role_key, kDayKeyword);
  std::vector<peks::PeksCiphertext> tags = make_tags(domain.pub(), role, rng);

  peks::PeksEncryptor enc(domain.pub());
  (void)enc.encrypt(role, "vitals:hr", rng);  // fills the g_r cache
  auto encrypt_cold = [&] {
    return measure(kEncryptSeconds, 4, [&] {
      for (size_t i = 0; i < 4; ++i) {
        peks::peks_encrypt(domain.pub(), role, "vitals:hr", rng,
                           variant_for(i));
      }
    });
  };
  auto encrypt_cached = [&] {
    return measure(kEncryptSeconds, 4, [&] {
      for (size_t i = 0; i < 4; ++i) {
        enc.encrypt(role, "vitals:hr", rng, variant_for(i));
      }
    });
  };
  std::vector<uint8_t> scalar_verdicts(kTags, 0);
  std::vector<uint8_t> batch_verdicts;
  auto test_scalar = [&] {
    return measure(kTestSeconds, kTags, [&] {
      for (size_t i = 0; i < kTags; ++i) {
        scalar_verdicts[i] = peks::peks_test(ctx, tags[i], td) ? 1 : 0;
      }
    });
  };
  auto test_batch = [&] {
    return measure(kTestSeconds, kTags, [&] {
      batch_verdicts = peks::peks_test_batch(ctx, tags, td);
    });
  };
  // One untimed pass of each, so no round pays first-use costs.
  (void)peks::peks_encrypt(domain.pub(), role, "vitals:hr", rng);
  (void)peks::peks_test(ctx, tags[0], td);
  (void)peks::peks_test_batch(ctx, tags, td);

  std::vector<Row> rows = {{"peks_encrypt_cold", "tags/s", {}},
                           {"peks_encrypt_cached", "tags/s", {}},
                           {"peks_test_scalar", "tests/s", {}},
                           {"peks_test_batch", "tests/s", {}}};
  std::vector<double> encrypt_ratios;
  std::vector<double> test_ratios;
  for (size_t round = 0; round < kRounds; ++round) {
    sample_ratio(round, rows[0], encrypt_cold, rows[1], encrypt_cached,
                 encrypt_ratios);
    sample_ratio(round, rows[2], test_scalar, rows[3], test_batch,
                 test_ratios);
    // Differential oracle gating the report: in every round the batched path
    // must agree with the scalar path on every tag, and the expected matches
    // must be present.
    if (batch_verdicts != scalar_verdicts) {
      std::fprintf(stderr,
                   "error: peks_test_batch diverged from the scalar oracle "
                   "in round %zu\n",
                   round);
      return 1;
    }
    for (size_t i = 0; i < kTags; ++i) {
      if (scalar_verdicts[i] != (i % 8 == 0 ? 1 : 0)) {
        std::fprintf(stderr,
                     "error: tag %zu has the wrong verdict in round %zu\n", i,
                     round);
        return 1;
      }
    }
  }

  std::printf("%-20s %12s %12s %12s  %s (%zu rounds)\n", "workload",
              "median", "min", "max", "unit", kRounds);
  for (const Row& r : rows) {
    std::printf("%-20s %12.1f %12.1f %12.1f  %s\n", r.workload.c_str(),
                quantile(r.ops_per_sec, 0.5), quantile(r.ops_per_sec, 0.0),
                quantile(r.ops_per_sec, 1.0), r.unit.c_str());
  }
  std::printf("speedups (median of per-round ratios [min, max]): encrypt "
              "cached/cold=%.2fx [%.2f, %.2f], test batch/scalar=%.2fx "
              "[%.2f, %.2f] (%zu tags)\n",
              quantile(encrypt_ratios, 0.5), quantile(encrypt_ratios, 0.0),
              quantile(encrypt_ratios, 1.0), quantile(test_ratios, 0.5),
              quantile(test_ratios, 0.0), quantile(test_ratios, 1.0), kTags);

  if (json_out == nullptr) return 0;
  bench::Json benchmarks = bench::Json::array();
  for (const Row& r : rows) {
    benchmarks.push(bench::Json::object()
                        .set("name", r.workload)
                        .set("unit", r.unit)
                        .set("ops_per_sec", spread(r.ops_per_sec)));
  }
  bench::Json report =
      bench::Json::object()
          .set("context", bench::context("bench_mhi")
                              .set("candidate_tags", kTags)
                              .set("repetitions", kRounds))
          .set("benchmarks", std::move(benchmarks))
          .set("speedups",
               bench::Json::object()
                   .set("peks_encrypt_cached_vs_cold", spread(encrypt_ratios))
                   .set("peks_test_batch_vs_scalar", spread(test_ratios)));
  return bench::write_report(json_out, report) ? 0 : 1;
}
