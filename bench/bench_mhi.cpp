// Streaming MHI kernel costs (DESIGN.md §13): the encrypt-side g_r cache and
// the batched PEKS test against a standing trapdoor. The headline numbers
// are the two amortization ratios the design claims:
//   * peks_encrypt_cached vs peks_encrypt_cold — the per-epoch
//     hash-to-point + pairing hoisted out of the tag loop;
//   * peks_test_batch vs peks_test_scalar — precomputed Miller loops plus
//     ONE batched final exponentiation across all candidate tags.
// The batched verdicts are checked against the scalar oracle inline; a
// report is only written if they agree bit-for-bit. The end-to-end window
// path (ingestor → hub → hit fetch) is perfbench's mhi_stream workload.
//
// Plain main() harness (like bench_ledger): prints a table and, with
// --json-out=PATH, writes BENCH_mhi.json through bench/report.h.
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

constexpr size_t kTags = 64;  // candidate tags per batched test

const char* kDay = "2011-04-12";
const char* kDayKeyword = "day:2011-04-12";

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Row {
  std::string workload;
  double ops_per_sec;
  std::string unit;
};

/// Runs `body` (performing `ops` unit operations per call) for at least
/// `min_seconds` after one untimed warm-up and returns ops/sec.
template <typename F>
double measure(double min_seconds, size_t ops, F&& body) {
  body();
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

Row bench_encrypt_cold(const ibc::PublicParams& pub, const std::string& role,
                       RandomSource& rng) {
  double ops = measure(0.3, 4, [&] {
    for (size_t i = 0; i < 4; ++i) {
      peks::peks_encrypt(pub, role, "vitals:hr", rng, variant_for(i));
    }
  });
  return {"peks_encrypt_cold", ops, "tags/s"};
}

Row bench_encrypt_cached(const ibc::PublicParams& pub, const std::string& role,
                         RandomSource& rng) {
  peks::PeksEncryptor enc(pub);  // warm-up call fills the g_r cache
  double ops = measure(0.3, 4, [&] {
    for (size_t i = 0; i < 4; ++i) {
      enc.encrypt(role, "vitals:hr", rng, variant_for(i));
    }
  });
  return {"peks_encrypt_cached", ops, "tags/s"};
}

Row bench_test_scalar(const curve::CurveCtx& ctx,
                      std::span<const peks::PeksCiphertext> tags,
                      const peks::Trapdoor& td,
                      std::vector<uint8_t>* verdicts_out) {
  std::vector<uint8_t> verdicts(tags.size(), 0);
  double ops = measure(0.6, tags.size(), [&] {
    for (size_t i = 0; i < tags.size(); ++i) {
      verdicts[i] = peks::peks_test(ctx, tags[i], td) ? 1 : 0;
    }
  });
  *verdicts_out = verdicts;
  return {"peks_test_scalar", ops, "tests/s"};
}

Row bench_test_batch(const curve::CurveCtx& ctx,
                     std::span<const peks::PeksCiphertext> tags,
                     const peks::Trapdoor& td,
                     std::vector<uint8_t>* verdicts_out) {
  std::vector<uint8_t> verdicts;
  double ops = measure(0.6, tags.size(), [&] {
    verdicts = peks::peks_test_batch(ctx, tags, td);
  });
  *verdicts_out = verdicts;
  return {"peks_test_batch", ops, "tests/s"};
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

  std::vector<Row> rows;
  rows.push_back(bench_encrypt_cold(domain.pub(), role, rng));
  rows.push_back(bench_encrypt_cached(domain.pub(), role, rng));
  std::vector<uint8_t> scalar_verdicts;
  std::vector<uint8_t> batch_verdicts;
  rows.push_back(bench_test_scalar(ctx, tags, td, &scalar_verdicts));
  rows.push_back(bench_test_batch(ctx, tags, td, &batch_verdicts));

  // Differential oracle gating the report: the batched path must agree with
  // the scalar path on every tag, and the expected matches must be present.
  if (batch_verdicts != scalar_verdicts) {
    std::fprintf(stderr,
                 "error: peks_test_batch diverged from the scalar oracle\n");
    return 1;
  }
  for (size_t i = 0; i < kTags; ++i) {
    if (scalar_verdicts[i] != (i % 8 == 0 ? 1 : 0)) {
      std::fprintf(stderr, "error: tag %zu has the wrong verdict\n", i);
      return 1;
    }
  }

  double encrypt_speedup = rows[1].ops_per_sec / rows[0].ops_per_sec;
  double test_speedup = rows[3].ops_per_sec / rows[2].ops_per_sec;

  std::printf("%-20s %14s  %s\n", "workload", "ops/sec", "unit");
  for (const Row& r : rows) {
    std::printf("%-20s %14.1f  %s\n", r.workload.c_str(), r.ops_per_sec,
                r.unit.c_str());
  }
  std::printf("speedups: encrypt cached/cold=%.2fx, test batch/scalar=%.2fx "
              "(%zu tags)\n",
              encrypt_speedup, test_speedup, kTags);

  if (json_out == nullptr) return 0;
  bench::Json benchmarks = bench::Json::array();
  for (const Row& r : rows) {
    benchmarks.push(bench::Json::object()
                        .set("name", r.workload)
                        .set("ops_per_sec", r.ops_per_sec)
                        .set("unit", r.unit));
  }
  bench::Json report =
      bench::Json::object()
          .set("context",
               bench::context("bench_mhi").set("candidate_tags", kTags))
          .set("benchmarks", std::move(benchmarks))
          .set("speedups",
               bench::Json::object()
                   .set("peks_encrypt_cached_vs_cold", encrypt_speedup)
                   .set("peks_test_batch_vs_scalar", test_speedup));
  return bench::write_report(json_out, report) ? 0 : 1;
}
