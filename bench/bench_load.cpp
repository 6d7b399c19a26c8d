// Closed/open-loop load harness over the sharded persistent account store
// (src/store) and the S-server protocol paths of a sharded SServerGroup.
//
// Population: one real account (built by a patient through §IV.B against a
// sharded SServerGroup with attached stores) is serialized once and written
// under --accounts synthetic pseudonym keys, sharded by store::shard_for_key
// across --shards standalone AccountStores — so store reads and writes run
// against a realistically sized log (index probes, mmap'd sealed segments,
// segment rolls) without paying 100k pairing setups. A small hot set of real
// patients drives the protocol paths (§12 update / §IV.D retrieve / §IV.E.1
// family emergency) against the group through the protocol clients, so the
// reads run SServer::dispatch and its handlers.
//
// Two generators:
//   closed loop — --clients worker threads issue store put/update/get ops
//     back-to-back; reports throughput. Only the stores are thread-safe
//     (SServer is single-threaded), so no protocol op runs here.
//   open loop   — a serial dispatcher fires the mixed store/update/retrieve/
//     emergency mix at each target QPS in --qps; latency is measured from
//     the op's *scheduled arrival* to completion, so queueing delay under
//     saturation is counted (coordinated-omission aware).
//
// Latency percentiles come from the library's obs histograms (load.*_ns),
// diffed per QPS point. After the run every key the workload mutated (and a
// sample of untouched ones) is read back and compared against a differential
// oracle map; a run whose store diverged exits 1 and writes no report.
//
// Plain main() harness (like bench_ledger): prints tables and, with
// --json-out=PATH, writes BENCH_load.json through bench/report.h.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/report.h"
#include "src/cipher/drbg.h"
#include "src/common/serialize.h"
#include "src/core/cluster.h"
#include "src/core/privilege.h"
#include "src/core/record.h"
#include "src/core/setup.h"
#include "src/hash/sha256.h"
#include "src/obs/metrics.h"
#include "src/store/shard.h"
#include "src/store/store.h"

using namespace hcpp;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct Args {
  size_t accounts = 100000;
  size_t shards = 4;
  size_t hot = 32;       // real patients driving the protocol paths
  size_t clients = 4;    // closed-loop worker threads
  size_t closed_ops = 8000;
  size_t open_ops = 2000;             // per QPS point
  std::vector<double> qps = {200, 500, 1000};
  std::string dir;
  const char* json_out = nullptr;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--accounts=N] [--shards=N] [--hot=N] "
               "[--clients=N] [--closed-ops=N] [--open-ops=N] "
               "[--qps=Q1,Q2,...] [--dir=PATH] [--json-out=PATH]\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* s = argv[i];
    auto num = [&](const char* prefix) {
      return bench::flag_value(s, prefix);
    };
    if (const char* v = num("--accounts=")) {
      a.accounts = std::strtoull(v, nullptr, 10);
    } else if (const char* v = num("--shards=")) {
      a.shards = std::strtoull(v, nullptr, 10);
    } else if (const char* v = num("--hot=")) {
      a.hot = std::strtoull(v, nullptr, 10);
    } else if (const char* v = num("--clients=")) {
      a.clients = std::strtoull(v, nullptr, 10);
    } else if (const char* v = num("--closed-ops=")) {
      a.closed_ops = std::strtoull(v, nullptr, 10);
    } else if (const char* v = num("--open-ops=")) {
      a.open_ops = std::strtoull(v, nullptr, 10);
    } else if (const char* v = num("--qps=")) {
      a.qps.clear();
      for (const char* p = v; *p != '\0';) {
        char* end = nullptr;
        a.qps.push_back(std::strtod(p, &end));
        p = (*end == ',') ? end + 1 : end;
      }
    } else if (const char* v = num("--dir=")) {
      a.dir = v;
    } else if (const char* v = num("--json-out=")) {
      a.json_out = v;
    } else {
      usage(argv[0]);
    }
  }
  if (a.accounts == 0 || a.shards == 0 || a.hot == 0 || a.clients == 0 ||
      a.qps.empty()) {
    usage(argv[0]);
  }
  bench::refuse_unoptimized_output(a.json_out);
  return a;
}

uint64_t ns_since(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

/// Synthetic population key i: a fake pseudonym (hex, same shape a real
/// serialized TPp hashes to) + the default collection, so shard routing is
/// exercised exactly as it would be for real accounts.
std::string population_key(uint64_t i) {
  io::Writer w;
  w.str("load-acct");
  w.u64(i);
  return hex_encode(hash::sha256_bytes(w.data())) + "/phi-main";
}

/// Value for variant v of a population account: the template account bytes
/// with a trailing version tag, so overwrites are distinguishable.
Bytes variant_value(const Bytes& templ, uint32_t v) {
  if (v == 0) return templ;
  io::Writer w;
  w.raw(templ);
  w.u32(v);
  return w.take();
}

/// The store key of update-log frame v against a population account — same
/// "#l/<label>" shape SServer::store_put_log appends (DESIGN.md §12), with a
/// synthetic label derived from the op counter.
std::string update_log_key(uint64_t acct, uint32_t v) {
  io::Writer w;
  w.str("load-log-label");
  w.u64(acct);
  w.u32(v);
  return population_key(acct) + "#l/" +
         hex_encode(hash::sha256_bytes(w.data())).substr(0, 32);
}

/// The 41-byte log-entry payload for frame v (op ‖ fid ‖ prev-state shape).
Bytes update_log_value(uint32_t v) {
  io::Writer w;
  w.str("load-log-entry");
  w.u32(v);
  Bytes entry = hash::sha256_bytes(w.data());
  Bytes tail = hash::sha256_bytes(entry);
  entry.insert(entry.end(), tail.begin(), tail.begin() + 9);
  return entry;  // 41 bytes, like sse::kLogEntrySize
}

struct Pct {
  uint64_t count = 0;
  double p50 = 0, p95 = 0, p99 = 0, max = 0;
};

Pct pct_of(const obs::Snapshot& diff, const char* name) {
  Pct p;
  auto it = diff.histograms.find(name);
  if (it == diff.histograms.end()) return p;
  const obs::HistogramSummary& h = it->second;
  p.count = h.count;
  p.p50 = h.percentile(0.50);
  p.p95 = h.percentile(0.95);
  p.p99 = h.percentile(0.99);
  p.max = h.max;
  return p;
}

struct OpenRow {
  double qps_target = 0;
  double qps_achieved = 0;
  size_t ops = 0;
  Pct all;  // load.op_ns
  Pct store, update, retrieve, emergency;
};

struct ClosedRow {
  size_t clients = 0;
  size_t ops = 0;
  double ops_per_sec = 0;
  double update_ops_per_sec = 0;
  Pct store_put, update, store_get;
};

struct OracleReport {
  size_t checked = 0;
  size_t mutated = 0;
  size_t mismatches = 0;
  bool self_check_ok = true;
  bool group_consistent = true;
  [[nodiscard]] bool pass() const {
    return mismatches == 0 && self_check_ok && group_consistent;
  }
};

void print_pct(const char* name, const Pct& p) {
  std::printf("  %-10s %8llu ops  p50=%8.0f  p95=%8.0f  p99=%8.0f  "
              "max=%9.0f  (ns)\n",
              name, static_cast<unsigned long long>(p.count), p.p50, p.p95,
              p.p99, p.max);
}

bench::Json pct_json(const Pct& p) {
  return bench::Json::object()
      .set("count", p.count)
      .set("p50_us", p.p50 / 1e3)
      .set("p95_us", p.p95 / 1e3)
      .set("p99_us", p.p99 / 1e3)
      .set("max_us", p.max / 1e3);
}

bench::Json report_json(const Args& args, size_t template_bytes,
                        const ClosedRow& closed,
                        const std::vector<OpenRow>& rows,
                        const OracleReport& oracle) {
  bench::Json open_loop = bench::Json::array();
  for (const OpenRow& r : rows) {
    open_loop.push(bench::Json::object()
                       .set("qps_target", r.qps_target)
                       .set("qps_achieved", r.qps_achieved)
                       .set("ops", r.ops)
                       .set("p50_us", r.all.p50 / 1e3)
                       .set("p95_us", r.all.p95 / 1e3)
                       .set("p99_us", r.all.p99 / 1e3)
                       .set("max_us", r.all.max / 1e3)
                       .set("per_op", bench::Json::object()
                                          .set("store", pct_json(r.store))
                                          .set("update", pct_json(r.update))
                                          .set("retrieve",
                                               pct_json(r.retrieve))
                                          .set("emergency",
                                               pct_json(r.emergency))));
  }
  return bench::Json::object()
      .set("context", bench::context("bench_load")
                          .set("accounts", args.accounts)
                          .set("shards", args.shards)
                          .set("hot_accounts", args.hot)
                          .set("template_account_bytes", template_bytes))
      .set("closed_loop",
           bench::Json::object()
               .set("clients", closed.clients)
               .set("ops", closed.ops)
               .set("ops_per_sec", closed.ops_per_sec)
               .set("update_ops_per_sec", closed.update_ops_per_sec)
               .set("latency", bench::Json::object()
                                   .set("store_put", pct_json(closed.store_put))
                                   .set("update", pct_json(closed.update))
                                   .set("store_get",
                                        pct_json(closed.store_get))))
      .set("open_loop", std::move(open_loop))
      .set("oracle", bench::Json::object()
                         .set("checked_keys", oracle.checked)
                         .set("mutated_keys", oracle.mutated)
                         .set("mismatches", oracle.mismatches)
                         .set("self_check_ok", oracle.self_check_ok)
                         .set("group_store_consistent",
                              oracle.group_consistent)
                         .set("pass", oracle.pass()));
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  if (args.dir.empty()) {
    args.dir = (fs::temp_directory_path() / "hcpp-bench-load").string();
  }
  fs::remove_all(args.dir);

  // ---- Setup: sharded group, hot patients, template account -------------
  std::printf("setup: %zu shards, %zu hot patients...\n", args.shards,
              args.hot);
  core::DeploymentConfig cfg;
  cfg.n_phi_files = 3;
  cfg.keywords_per_file = 2;
  cfg.file_content_bytes = 128;
  core::Deployment d = core::Deployment::create(cfg);
  core::SServerGroup group(*d.net, *d.aserver, d.sserver->service_id(),
                           args.shards,
                           core::SServerGroup::Placement::kSharded);
  if (!group.attach_stores(args.dir + "/grp")) {
    std::fprintf(stderr, "error: attach_stores failed under %s\n",
                 args.dir.c_str());
    return 1;
  }

  std::vector<std::unique_ptr<core::Patient>> hot;
  std::vector<std::unique_ptr<core::Family>> families;
  Bytes mu = hash::sha256_bytes(to_bytes("bench-load-mu"));  // 32-byte μ
  for (size_t i = 0; i < args.hot; ++i) {
    auto p = std::make_unique<core::Patient>(
        *d.net, "load-patient-" + std::to_string(i), *d.rng);
    p->setup(*d.aserver, group.service_id());
    p->add_files(core::generate_phi_collection(cfg.n_phi_files, p->rng(), 1,
                                               cfg.keywords_per_file,
                                               cfg.file_content_bytes));
    auto r = p->try_store_phi(group);
    if (!r.ok()) {
      std::fprintf(stderr, "error: hot patient %zu store_phi failed\n", i);
      return 1;
    }
    if (families.size() < 8) {
      auto fam = std::make_unique<core::Family>(
          *d.net, "load-family-" + std::to_string(i));
      if (!core::assign_privilege(*p, *fam, mu)) {
        std::fprintf(stderr, "error: assign_privilege failed\n");
        return 1;
      }
      families.push_back(std::move(fam));
    }
    hot.push_back(std::move(p));
  }

  // The serialized form of hot[0]'s account is the population template.
  std::string template_key =
      core::SServer::account_key(hot[0]->tp_bytes(), hot[0]->collection());
  size_t owner = group.shard_of(hot[0]->tp_bytes());
  auto templ_opt = group.replica(owner).account_store().get(template_key);
  if (!templ_opt.has_value()) {
    std::fprintf(stderr, "error: template account missing from store\n");
    return 1;
  }
  Bytes templ = std::move(*templ_opt);

  // ---- Population: --accounts synthetic keys across the shard stores ----
  std::printf("populating %zu accounts (%zu B template) across %zu "
              "stores...\n",
              args.accounts, templ.size(), args.shards);
  auto t_pop = Clock::now();
  std::vector<store::AccountStore> pop;
  for (size_t s = 0; s < args.shards; ++s) {
    pop.push_back(store::AccountStore::open(args.dir + "/pop/shard-" +
                                            std::to_string(s)));
  }
  {
    // Shard fills run concurrently: keys are routed up front, then each
    // shard's store appends on its own thread.
    std::vector<std::vector<uint64_t>> per_shard(args.shards);
    for (uint64_t i = 0; i < args.accounts; ++i) {
      per_shard[store::shard_for_key(population_key(i), args.shards)]
          .push_back(i);
    }
    std::vector<std::thread> fillers;
    std::atomic<bool> fill_ok{true};
    for (size_t s = 0; s < args.shards; ++s) {
      fillers.emplace_back([&, s] {
        for (uint64_t i : per_shard[s]) {
          if (!pop[s].put(population_key(i), templ)) {
            fill_ok.store(false);
            return;
          }
        }
      });
    }
    for (auto& th : fillers) th.join();
    if (!fill_ok.load()) {
      std::fprintf(stderr, "error: population fill failed\n");
      return 1;
    }
  }
  std::printf("populated in %.1f s\n", static_cast<double>(ns_since(t_pop)) / 1e9);

  // One logical keyword per hot patient, for retrieve/emergency.
  std::vector<std::string> hot_keywords;
  for (auto& p : hot) {
    hot_keywords.push_back(p->keyword_index().entries.begin()->first);
  }

  // Differential oracle: population key index -> latest variant written,
  // plus every update-log frame appended (append-only, never overwritten).
  std::mutex oracle_mu;
  std::map<uint64_t, uint32_t> oracle;
  std::map<uint64_t, std::vector<uint32_t>> log_oracle;
  std::atomic<uint32_t> next_variant{1};

  // ---- Closed loop: threads hammer the thread-safe paths ----------------
  std::printf("closed loop: %zu clients x %zu ops...\n", args.clients,
              args.closed_ops / args.clients);
  ClosedRow closed;
  closed.clients = args.clients;
  closed.ops = args.closed_ops / args.clients * args.clients;
  {
    // A fresh registry per phase keeps each report's min/max windowed to
    // that phase (Snapshot::diff carries absolute min/max through).
    obs::Registry reg;
    obs::attach(&reg);
    auto t0 = Clock::now();
    std::vector<std::thread> workers;
    std::atomic<bool> ok{true};
    for (size_t c = 0; c < args.clients; ++c) {
      workers.emplace_back([&, c] {
        cipher::Drbg rng(to_bytes("bench-load-closed-" + std::to_string(c)));
        for (size_t i = 0; i < args.closed_ops / args.clients; ++i) {
          uint8_t dice = rng.bytes(1)[0];
          uint64_t acct = 0;
          for (uint8_t b : rng.bytes(8)) acct = (acct << 8) | b;
          acct %= args.accounts;
          size_t shard =
              store::shard_for_key(population_key(acct), args.shards);
          auto t_op = Clock::now();
          if (dice < 64) {  // put (25%): whole-account re-upload
            uint32_t v = next_variant.fetch_add(1);
            if (!pop[shard].put(population_key(acct),
                                variant_value(templ, v))) {
              ok.store(false);
              return;
            }
            obs::observe(obs::kLoadStoreNs,
                         static_cast<double>(ns_since(t_op)));
            std::lock_guard<std::mutex> lock(oracle_mu);
            oracle[acct] = v;
          } else if (dice < 90) {  // update (10%): O(delta) log-frame append
            uint32_t v = next_variant.fetch_add(1);
            if (!pop[shard].put(update_log_key(acct, v),
                                update_log_value(v))) {
              ok.store(false);
              return;
            }
            obs::observe(obs::kLoadUpdateNs,
                         static_cast<double>(ns_since(t_op)));
            std::lock_guard<std::mutex> lock(oracle_mu);
            log_oracle[acct].push_back(v);
          } else {  // get (65%)
            auto got = pop[shard].get(population_key(acct));
            obs::observe(obs::kLoadRetrieveNs,
                         static_cast<double>(ns_since(t_op)));
            if (!got.has_value()) {
              ok.store(false);
              return;
            }
          }
        }
      });
    }
    for (auto& th : workers) th.join();
    if (!ok.load()) {
      std::fprintf(stderr, "error: closed-loop op failed\n");
      return 1;
    }
    double secs = static_cast<double>(ns_since(t0)) / 1e9;
    closed.ops_per_sec = static_cast<double>(closed.ops) / secs;
    obs::Snapshot diff = reg.snapshot();
    obs::attach(nullptr);
    closed.store_put = pct_of(diff, obs::kLoadStoreNs);
    closed.update = pct_of(diff, obs::kLoadUpdateNs);
    closed.store_get = pct_of(diff, obs::kLoadRetrieveNs);
    closed.update_ops_per_sec =
        static_cast<double>(closed.update.count) / secs;
    std::printf("closed loop: %.0f ops/s (update ops/s: %.0f)\n",
                closed.ops_per_sec, closed.update_ops_per_sec);
    print_pct("store_put", closed.store_put);
    print_pct("update", closed.update);
    print_pct("store_get", closed.store_get);
  }

  // ---- Open loop: serial dispatcher at each target QPS ------------------
  std::vector<OpenRow> rows;
  for (double qps : args.qps) {
    std::printf("open loop: %zu ops @ %.0f QPS target...\n", args.open_ops,
                qps);
    cipher::Drbg rng(to_bytes("bench-load-open"));
    obs::Registry reg;
    obs::attach(&reg);
    auto t0 = Clock::now();
    double interval_ns = 1e9 / qps;
    for (size_t i = 0; i < args.open_ops; ++i) {
      auto arrival =
          t0 + std::chrono::nanoseconds(
                   static_cast<uint64_t>(static_cast<double>(i) * interval_ns));
      std::this_thread::sleep_until(arrival);
      uint8_t dice = rng.bytes(1)[0];
      uint64_t acct = 0;
      for (uint8_t b : rng.bytes(8)) acct = (acct << 8) | b;
      size_t hot_i = acct % hot.size();
      acct %= args.accounts;
      // Mix: 20% store, 10% update, 55% retrieve, 15% emergency.
      if (dice < 51) {
        size_t shard = store::shard_for_key(population_key(acct), args.shards);
        uint32_t v = next_variant.fetch_add(1);
        if (!pop[shard].put(population_key(acct), variant_value(templ, v))) {
          std::fprintf(stderr, "error: open-loop put failed\n");
          return 1;
        }
        oracle[acct] = v;
        double lat = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 arrival)
                .count());
        obs::observe(obs::kLoadStoreNs, lat);
        obs::observe(obs::kLoadOpNs, lat);
      } else if (dice < 77) {
        // §12 UPDATE: re-upload one edited file through the real protocol —
        // O(delta) forward-private log inserts + one blob, no index rebuild
        // (before this op existed, "store" re-uploaded the whole account).
        core::Patient& p = *hot[hot_i];
        sse::PlainFile f = p.files().front();
        io::Writer w;
        w.str("load-edited-body");
        w.u32(next_variant.fetch_add(1));
        f.content = hash::sha256_bytes(w.data());
        auto res = p.try_update_phi(group, {std::move(f)});
        double lat = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 arrival)
                .count());
        obs::observe(obs::kLoadUpdateNs, lat);
        obs::observe(obs::kLoadOpNs, lat);
        if (!res.ok()) {
          std::fprintf(stderr, "error: open-loop update failed\n");
          return 1;
        }
      } else if (dice < 218) {
        std::vector<std::string> kws = {hot_keywords[hot_i]};
        auto res = hot[hot_i]->try_retrieve(group, kws);
        double lat = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 arrival)
                .count());
        obs::observe(obs::kLoadRetrieveNs, lat);
        obs::observe(obs::kLoadOpNs, lat);
        if (!res.ok() || res.value().empty()) {
          std::fprintf(stderr, "error: open-loop retrieve failed\n");
          return 1;
        }
      } else {
        size_t fam_i = hot_i % families.size();
        std::vector<std::string> kws = {hot_keywords[fam_i]};
        auto res = families[fam_i]->try_emergency_retrieve(group, kws);
        double lat = static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 arrival)
                .count());
        obs::observe(obs::kLoadEmergencyNs, lat);
        obs::observe(obs::kLoadOpNs, lat);
        if (!res.ok() || res.value().empty()) {
          std::fprintf(stderr, "error: open-loop emergency failed\n");
          return 1;
        }
      }
    }
    OpenRow row;
    row.qps_target = qps;
    row.ops = args.open_ops;
    row.qps_achieved = static_cast<double>(args.open_ops) /
                       (static_cast<double>(ns_since(t0)) / 1e9);
    obs::Snapshot diff = reg.snapshot();
    obs::attach(nullptr);
    row.all = pct_of(diff, obs::kLoadOpNs);
    row.store = pct_of(diff, obs::kLoadStoreNs);
    row.update = pct_of(diff, obs::kLoadUpdateNs);
    row.retrieve = pct_of(diff, obs::kLoadRetrieveNs);
    row.emergency = pct_of(diff, obs::kLoadEmergencyNs);
    std::printf("open loop @ %.0f QPS: achieved %.1f\n", qps,
                row.qps_achieved);
    print_pct("all", row.all);
    print_pct("store", row.store);
    print_pct("update", row.update);
    print_pct("retrieve", row.retrieve);
    print_pct("emergency", row.emergency);
    rows.push_back(row);
  }

  // ---- Differential oracle: store contents vs the expected map ----------
  std::printf("verifying differential oracle...\n");
  OracleReport orep;
  orep.mutated = oracle.size();
  for (const auto& [acct, v] : oracle) {
    std::string key = population_key(acct);
    size_t shard = store::shard_for_key(key, args.shards);
    auto got = pop[shard].get(key);
    ++orep.checked;
    if (!got.has_value() || *got != variant_value(templ, v)) ++orep.mismatches;
  }
  // Every update-log frame the closed loop appended must read back intact
  // (append-only: a frame is never overwritten by later traffic).
  for (const auto& [acct, frames] : log_oracle) {
    orep.mutated += frames.size();
    size_t shard = store::shard_for_key(population_key(acct), args.shards);
    for (uint32_t v : frames) {
      auto got = pop[shard].get(update_log_key(acct, v));
      ++orep.checked;
      if (!got.has_value() || *got != update_log_value(v)) ++orep.mismatches;
    }
  }
  // Untouched sample: every 97th account that the workload never wrote must
  // still serve the pristine template bytes.
  for (uint64_t i = 0; i < args.accounts; i += 97) {
    if (oracle.contains(i)) continue;
    std::string key = population_key(i);
    auto got = pop[store::shard_for_key(key, args.shards)].get(key);
    ++orep.checked;
    if (!got.has_value() || *got != templ) ++orep.mismatches;
  }
  for (auto& st : pop) {
    if (!st.self_check()) orep.self_check_ok = false;
  }
  for (size_t s = 0; s < group.size(); ++s) {
    if (!group.replica(s).store_consistent()) orep.group_consistent = false;
  }
  std::printf("oracle: %zu keys checked (%zu mutated), %zu mismatches, "
              "self_check=%s, group_consistent=%s -> %s\n",
              orep.checked, orep.mutated, orep.mismatches,
              orep.self_check_ok ? "ok" : "FAILED",
              orep.group_consistent ? "ok" : "FAILED",
              orep.pass() ? "PASS" : "FAIL");

  fs::remove_all(args.dir);
  // A store that diverged from the oracle publishes no numbers.
  if (!orep.pass()) return 1;
  if (args.json_out == nullptr) return 0;
  return bench::write_report(
             args.json_out,
             report_json(args, templ.size(), closed, rows, orep))
             ? 0
             : 1;
}
