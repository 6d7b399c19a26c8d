// Audit-ledger costs (src/ledger): append throughput with and without the
// write-ahead log, full-chain verification, and O(log n) Merkle inclusion
// proofs. The proof-verify latency distribution comes from the library's own
// obs histogram (ledger.proof.verify_ns) rather than a bench-side timer, so
// the numbers are the ones a deployment's metrics endpoint would report.
//
// Plain main() harness (like bench_throughput): prints a table and, with
// --json-out=PATH, writes BENCH_ledger.json through bench/report.h — only
// when the proof workload left latency samples in the histogram.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/ledger/ledger.h"
#include "src/obs/metrics.h"

using namespace hcpp;

namespace {

constexpr size_t kEntries = 4096;  // chain size the verify/proof runs use

ledger::AccessEvent make_event(uint64_t i) {
  ledger::AccessEvent ev;
  ev.kind = (i % 2 == 0) ? ledger::EventKind::kTrace
                         : ledger::EventKind::kAccess;
  ev.actor_id = "dr-" + std::to_string(i % 16);
  ev.subject = to_bytes("tp-" + std::to_string(i % 64));
  if (ev.kind == ledger::EventKind::kAccess) {
    ev.keywords = {"diabetes", "insulin"};
  }
  ev.t10 = 1'000 + i;
  ev.t11 = 2'000 + i;
  ev.sig = Bytes(96, static_cast<uint8_t>(i));
  return ev;
}

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

Row bench_append() {
  double ops = measure(0.3, kEntries, [] {
    ledger::Ledger led("bench");
    for (uint64_t i = 0; i < kEntries; ++i) led.append(make_event(i));
  });
  return {"append", ops, "entries/s"};
}

Row bench_append_wal() {
  std::filesystem::path wal =
      std::filesystem::temp_directory_path() / "hcpp-bench-ledger-wal";
  double ops = measure(0.3, kEntries, [&] {
    std::filesystem::remove(wal);
    ledger::Ledger led("bench");
    if (!led.attach_wal(wal.string())) std::abort();
    for (uint64_t i = 0; i < kEntries; ++i) led.append(make_event(i));
  });
  std::filesystem::remove(wal);
  return {"append_wal", ops, "entries/s"};
}

Row bench_verify_chain(const ledger::Ledger& led) {
  double ops = measure(0.3, led.size(), [&] {
    if (!led.verify_chain().ok()) std::abort();
  });
  return {"verify_chain", ops, "entries/s"};
}

Row bench_recover(const std::string& wal_path) {
  double ops = measure(0.3, kEntries, [&] {
    ledger::RecoveryReport rep;
    ledger::Ledger led = ledger::Ledger::recover(wal_path, "bench", &rep);
    if (rep.entries != kEntries) std::abort();
  });
  return {"recover", ops, "entries/s"};
}

Row bench_proofs(const ledger::Ledger& led) {
  Bytes root = led.merkle_root(led.size());
  double ops = measure(0.3, 256, [&] {
    for (uint64_t i = 0; i < 256; ++i) {
      uint64_t seq = (i * 131) % led.size();
      ledger::InclusionProof proof = led.prove(seq, led.size());
      if (!ledger::Ledger::verify_proof(root, proof)) std::abort();
    }
  });
  return {"prove_and_verify", ops, "proofs/s"};
}

bench::Json latency_json(const char* histogram,
                         const obs::HistogramSummary& h) {
  return bench::Json::object()
      .set("source_histogram", histogram)
      .set("count", h.count)
      .set("p50", h.percentile(0.50))
      .set("p95", h.percentile(0.95))
      .set("p99", h.percentile(0.99))
      .set("max", h.max);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_out = bench::json_out_arg(argc, argv);

  // A populated chain for the read-side workloads, plus a WAL image of it
  // for the recovery workload.
  ledger::Ledger led("bench");
  std::filesystem::path wal =
      std::filesystem::temp_directory_path() / "hcpp-bench-ledger-recover";
  std::filesystem::remove(wal);
  if (!led.attach_wal(wal.string())) std::abort();
  for (uint64_t i = 0; i < kEntries; ++i) led.append(make_event(i));

  std::vector<Row> rows;
  rows.push_back(bench_append());
  rows.push_back(bench_append_wal());
  rows.push_back(bench_verify_chain(led));
  rows.push_back(bench_recover(wal.string()));

  // Proof workload runs with a registry attached so the library's own
  // ledger.proof.verify_ns histogram captures the latency distribution.
  obs::Registry reg;
  obs::attach(&reg);
  rows.push_back(bench_proofs(led));
  obs::attach(nullptr);
  obs::HistogramSummary verify_lat;
  obs::Snapshot snap = reg.snapshot();
  if (auto it = snap.histograms.find(obs::kLedgerProofVerifyNs);
      it != snap.histograms.end()) {
    verify_lat = it->second;
  }
  std::filesystem::remove(wal);

  std::printf("%-18s %14s  %s\n", "workload", "ops/sec", "unit");
  for (const Row& r : rows) {
    std::printf("%-18s %14.1f  %s\n", r.workload.c_str(), r.ops_per_sec,
                r.unit.c_str());
  }
  std::printf("proof verify latency (ns): p50=%.0f p95=%.0f p99=%.0f "
              "(%llu samples)\n",
              verify_lat.percentile(0.50), verify_lat.percentile(0.95),
              verify_lat.percentile(0.99),
              static_cast<unsigned long long>(verify_lat.count));

  if (json_out == nullptr) return 0;
  if (verify_lat.count == 0) {
    std::fprintf(stderr, "error: no proof-verify latency samples; was the "
                         "obs registry attached?\n");
    return 1;
  }
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
               bench::context("bench_ledger").set("chain_entries", kEntries))
          .set("benchmarks", std::move(benchmarks))
          .set("proof_verify_latency_ns",
               latency_json(obs::kLedgerProofVerifyNs, verify_lat));
  return bench::write_report(json_out, report) ? 0 : 1;
}
