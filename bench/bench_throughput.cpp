// Throughput vs thread count for the parallel execution layer (src/par):
// SSE index build, collection AEAD (encrypt + decrypt) and batch IBS
// verification, each at 1/2/4/8 threads, plus single-thread ChaCha20 rows
// per kernel variant. Prints a table and, with --json-out=PATH, a JSON report
// whose context records the hardware so single-core containers are honest
// about flat scaling ("speedup_note").
//
// Plain main() harness (like bench_protocols): wall-clock throughput of
// whole operations is the quantity of interest, not ns/op distributions.
#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/cipher/chacha20.h"
#include "src/cipher/drbg.h"
#include "src/mp/dispatch.h"
#include "src/core/record.h"
#include "src/ibc/ibs.h"
#include "src/par/pool.h"
#include "src/sse/sse.h"

using namespace hcpp;

namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Row {
  std::string workload;
  size_t threads;
  double ops_per_sec;  // workload-specific unit, see `unit`
  std::string unit;
};

// Runs `body` (which performs `ops` unit operations) repeatedly for at
// least `min_seconds` and returns ops/sec.
template <typename F>
double measure(double min_seconds, size_t ops, F&& body) {
  // Warm-up: one untimed run (pool spin-up, curve cache population).
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

std::vector<sse::PlainFile> make_files(size_t n) {
  cipher::Drbg rng(to_bytes("bench-throughput-files"));
  return core::generate_phi_collection(n, rng);
}

Row bench_index_build(size_t threads, std::span<const sse::PlainFile> files) {
  cipher::Drbg krng(to_bytes("bt-index-keys"));
  sse::Keys keys = sse::Keys::generate(krng);
  par::ThreadPool pool(threads, "bt-index");
  double ops = measure(0.5, files.size(), [&] {
    cipher::Drbg rng(to_bytes("bt-index-rng"));
    sse::SecureIndex si =
        sse::build_index(files, keys, rng, 1.25, &pool);
    if (si.array_a.empty()) std::abort();  // keep the work observable
  });
  return {"index_build", threads, ops, "files/s"};
}

Row bench_collection_aead(size_t threads,
                          std::span<const sse::PlainFile> files) {
  cipher::Drbg krng(to_bytes("bt-aead-keys"));
  sse::Keys keys = sse::Keys::generate(krng);
  par::ThreadPool pool(threads, "bt-aead");
  double ops = measure(0.5, 2 * files.size(), [&] {
    cipher::Drbg rng(to_bytes("bt-aead-rng"));
    sse::EncryptedCollection ec =
        sse::encrypt_collection(files, keys, rng, &pool);
    std::vector<sse::PlainFile> back =
        sse::decrypt_collection(keys, ec, &pool);
    if (back.size() != files.size()) std::abort();
  });
  return {"collection_aead", threads, ops, "files/s"};
}

Row bench_ibs_batch(size_t threads, const ibc::Domain& domain,
                    std::span<const ibc::IbsBatchItem> items) {
  par::ThreadPool pool(threads, "bt-ibs");
  double ops = measure(0.5, items.size(), [&] {
    std::vector<uint8_t> ok =
        ibc::ibs_verify_batch(domain.pub(), items, &pool);
    for (uint8_t v : ok) {
      if (!v) std::abort();
    }
  });
  return {"ibs_verify_batch", threads, ops, "sigs/s"};
}

// Single-thread ChaCha20 bulk-xor row per kernel variant: chacha20_xor_avx2
// vs chacha20_xor_generic (on non-AVX2 hosts both rows measure the scalar
// core and the names coincide at "generic"). This is the cipher half of the
// collection_aead speedup, isolated from AEAD framing and the pool.
Row bench_chacha_xor(bool force_generic) {
  if (force_generic) {
    ::setenv("HCPP_FORCE_GENERIC", "1", 1);
  } else {
    ::unsetenv("HCPP_FORCE_GENERIC");
  }
  mp::refresh_dispatch();
  std::array<uint8_t, cipher::kChaChaKeySize> key{};
  std::array<uint8_t, cipher::kChaChaNonceSize> nonce{};
  key.fill(0x42);
  nonce.fill(0x17);
  Bytes buf(1 << 20, 0x5a);
  double ops = measure(0.5, 1, [&] {
    cipher::chacha20_xor(key, nonce, 0, buf);
  });
  std::string workload =
      std::string("chacha20_xor_") + cipher::chacha20_kernel_name();
  ::unsetenv("HCPP_FORCE_GENERIC");
  mp::refresh_dispatch();
  return {workload, 1, ops, "MiB/s"};
}

void write_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::perror("fopen --json-out");
    std::exit(1);
  }
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  const auto& feat = mp::cpu_features();
  std::fprintf(f,
               "{\n  \"context\": {\n"
               "    \"source\": \"bench_throughput\",\n"
               "    \"library_build_type\": \"%s\",\n"
               "    \"hardware_concurrency\": %u,\n"
               "    \"cpu_features\": {\"bmi2\": %s, \"adx\": %s, "
               "\"avx2\": %s},\n"
               "    \"mont_kernel\": \"%s\",\n"
               "    \"chacha_kernel\": \"%s\",\n"
               "    \"speedup_note\": \"thread scaling is bounded by "
               "hardware_concurrency; on a single-core host all thread "
               "counts measure the same core\"\n  },\n  \"benchmarks\": [\n",
               build_type, std::thread::hardware_concurrency(),
               feat.bmi2 ? "true" : "false", feat.adx ? "true" : "false",
               feat.avx2 ? "true" : "false", mp::mont_kernel_name(),
               cipher::chacha20_kernel_name());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s/threads:%zu\", \"workload\": \"%s\", "
                 "\"threads\": %zu, \"ops_per_sec\": %.2f, \"unit\": "
                 "\"%s\"}%s\n",
                 r.workload.c_str(), r.threads, r.workload.c_str(), r.threads,
                 r.ops_per_sec, r.unit.c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json-out=", 11) == 0) {
      json_out = argv[i] + 11;
    } else {
      std::fprintf(stderr, "usage: %s [--json-out=PATH]\n", argv[0]);
      return 2;
    }
  }

  auto files = make_files(64);

  cipher::Drbg drng(to_bytes("bt-ibs-domain"));
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  ibc::Domain domain(ctx, drng);
  std::vector<ibc::IbsBatchItem> sigs;
  for (int i = 0; i < 24; ++i) {
    // Twelve identities, each signing twice (the repeat hits the H1 memo).
    std::string id = "dr-" + std::to_string(i % 12);
    Bytes msg = to_bytes("audit-statement-" + std::to_string(i));
    sigs.push_back(
        {id, msg, ibc::ibs_sign(ctx, domain.extract(id), id, msg, drng)});
  }

  std::vector<Row> rows;
  std::printf("%-20s %8s %14s  %s\n", "workload", "threads", "ops/sec",
              "unit");
  for (size_t t : kThreadCounts) {
    for (Row (*bench)(size_t, std::span<const sse::PlainFile>) :
         {&bench_index_build, &bench_collection_aead}) {
      rows.push_back(bench(t, files));
    }
    rows.push_back(bench_ibs_batch(t, domain, sigs));
  }
  rows.push_back(bench_chacha_xor(false));
  rows.push_back(bench_chacha_xor(true));
  // Group the printout by workload so scaling reads top-to-bottom.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) {
                     return a.workload < b.workload;
                   });
  for (const Row& r : rows) {
    std::printf("%-20s %8zu %14.1f  %s\n", r.workload.c_str(), r.threads,
                r.ops_per_sec, r.unit.c_str());
  }
  std::printf("hardware_concurrency=%u\n",
              std::thread::hardware_concurrency());

  if (json_out != nullptr) {
    write_json(json_out, rows);
    std::printf("wrote %s\n", json_out);
  }
  return 0;
}
