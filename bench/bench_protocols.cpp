// E3 (§V.B.2 communication analysis): runs every HCPP protocol once on the
// simulated network and prints (and, with --json-out=PATH, writes) rounds
// (messages) and bytes per protocol phase — the quantities the paper's
// analysis reports qualitatively:
//   * PHI storage: one (large) upload message
//   * privilege ASSIGN: local, one sealed bundle per entity
//   * REVOKE: one message to the S-server
//   * common-case retrieval: one round (2 messages)
//   * family emergency retrieval: two rounds (4 messages)
//   * P-device emergency: the same two rounds + the A-server authentication
//   * MHI storage/retrieval: one message per window / one round per query
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/core/setup.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"

using namespace hcpp;
using namespace hcpp::core;

namespace {

struct PhaseRow {
  std::string phase;
  uint64_t messages;
  uint64_t bytes;
  std::string expectation;
};

// Sums current stats across all protocol labels, then clears them.
sim::TrafficStats drain(sim::Network& net) {
  sim::TrafficStats t = net.total();
  net.reset_stats();
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  // --json-out=PATH: the per-phase rows below as BENCH_protocols.json.
  // --metrics-out=PATH: the full metrics-registry snapshot (crypto-op
  // counts, transport delivery stats, latency histograms), exactly as
  // obs::to_json writes it. The registry is attached either way so the rows
  // and the snapshot describe the same run.
  const char* json_out = nullptr;
  const char* metrics_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = bench::flag_value(argv[i], "--json-out=")) {
      json_out = v;
    } else if (const char* v = bench::flag_value(argv[i], "--metrics-out=")) {
      metrics_out = v;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json-out=PATH] [--metrics-out=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  bench::refuse_unoptimized_output(json_out);
  bench::refuse_unoptimized_output(metrics_out);
  obs::attach(&obs::global());

  DeploymentConfig cfg;
  cfg.n_phi_files = 32;
  cfg.seed = 2025;
  cfg.store_phi = false;
  cfg.assign_privileges = false;
  Deployment d = Deployment::create(cfg);
  std::vector<PhaseRow> rows;
  auto record = [&](std::string phase, std::string expectation) {
    sim::TrafficStats t = drain(*d.net);
    rows.push_back({std::move(phase), t.messages, t.bytes,
                    std::move(expectation)});
  };

  drain(*d.net);

  // §IV.B private PHI storage.
  if (!d.patient->try_store_phi(*d.sserver).ok()) return 1;
  record("PHI storage (§IV.B)", "one-time upload of SI+Λ: 1 msg");

  // §IV.C ASSIGN (local links).
  (void)assign_privilege(*d.patient, *d.family, d.mu_family);
  (void)assign_privilege(*d.patient, *d.pdevice, d.mu_pdevice);
  record("privilege ASSIGN x2 (§IV.C)", "local only: 1 bundle per entity");

  // §IV.C REVOKE (of an unused slot, so later flows still work).
  (void)d.patient->try_revoke_member(*d.sserver, 5);
  record("privilege REVOKE (§IV.C)", "one transmission to S-server");

  // §IV.D common-case retrieval.
  std::vector<std::string> one_kw = {d.all_keywords().front()};
  (void)d.patient->try_retrieve(*d.sserver, one_kw);
  record("common-case retrieval (§IV.D)", "one round: 2 msgs");

  // §IV.E.1 family emergency retrieval.
  (void)d.family->try_emergency_retrieve(*d.sserver, one_kw);
  record("family emergency retrieval (§IV.E.1)",
         "two rounds: 4 msgs (one extra to recover d)");

  // §IV.E.2 P-device emergency (auth + retrieval).
  d.pdevice->press_emergency_button();
  auto pass =
      d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
  if (!pass.ok() ||
      !d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device) ||
      !d.pdevice->enter_passcode(d.on_duty->id(), pass.value().nonce)) {
    return 1;
  }
  record("P-device emergency auth (§IV.E.2)",
         "IBS request + passcode to physician + push to device: 3 msgs");
  (void)d.pdevice->try_emergency_retrieve(*d.sserver, one_kw);
  record("P-device emergency retrieval (§IV.E.2)",
         "same two rounds as the family path: 4 msgs");

  // §IV.E.2 MHI.
  cipher::Drbg mhi_rng(to_bytes("bench-protocols-mhi"));
  d.pdevice->collect_mhi(core::generate_mhi_window("2011-04-12", 300,
                                                   mhi_rng));
  std::vector<std::string> extra;
  const std::string role = "2011-04-12|emergency|gainesville";
  (void)d.pdevice->try_store_mhi(*d.aserver, *d.sserver, role, extra);
  record("MHI storage (§IV.E.2)", "pre-computed offline, 1 msg per window");
  auto role_key = d.on_duty->try_request_role_key(*d.aserver, role);
  if (!role_key.ok()) return 1;
  record("MHI role-key extraction (§IV.E.2)", "auth round: 2 msgs");
  (void)d.on_duty->try_retrieve_mhi(*d.sserver, role, role_key.value(),
                                    "day:2011-04-12");
  record("MHI retrieval (§IV.E.2)", "one round: 2 msgs");

  std::printf(
      "E3 / §V.B.2 — communication per protocol phase (32-file collection, "
      "one keyword per retrieval)\n\n");
  std::printf("%-42s %5s %10s   %s\n", "protocol phase", "msgs", "bytes",
              "paper §V.B.2 expectation");
  for (const PhaseRow& r : rows) {
    std::printf("%-42s %5" PRIu64 " %10" PRIu64 "   %s\n", r.phase.c_str(),
                r.messages, r.bytes, r.expectation.c_str());
  }
  std::printf(
      "\nshape check: family path (4) = common case (2) + one extra round "
      "(2); the P-device path\nadds only the 3-message role-based "
      "authentication — §V.B.2's \"one more round per security add-on\".\n");

  if (json_out != nullptr) {
    bench::Json benchmarks = bench::Json::array();
    for (const PhaseRow& r : rows) {
      benchmarks.push(bench::Json::object()
                          .set("name", r.phase)
                          .set("messages", r.messages)
                          .set("bytes", r.bytes)
                          .set("expectation", r.expectation));
    }
    bench::Json report = bench::Json::object()
                             .set("context", bench::context("bench_protocols"))
                             .set("benchmarks", std::move(benchmarks));
    if (!bench::write_report(json_out, report)) return 1;
  }
  if (metrics_out != nullptr &&
      !bench::write_text(metrics_out,
                         obs::to_json(obs::global().snapshot()))) {
    return 1;
  }
  return 0;
}
