// E6 (§VI.B/C countermeasures): measures what the attacks actually obtain
// with and without the countermeasures.
//
//  (a) traffic analysis: fraction of uploads a malicious observer at the
//      S-server can link to the same patient — direct uploads under one
//      pseudonym vs. onion-routed uploads under rotated pseudonyms;
//  (b) timing analysis: Pearson correlation between hospital-visit times
//      and upload times — immediate uploads vs. PRG-randomized scheduling.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/cipher/drbg.h"
#include "src/ibc/domain.h"
#include "src/sim/network.h"
#include "src/sim/onion.h"
#include "study/sim/scheduler.h"

using namespace hcpp;

namespace {

// A toy S-server-side observer: it records (origin, pseudonym) per upload
// and counts how many uploads it can cluster into the biggest group.
struct Observer {
  std::map<std::string, size_t> by_key;
  void see(const std::string& origin, const std::string& pseudonym) {
    by_key[origin + "|" + pseudonym] += 1;
  }
  size_t largest_cluster() const {
    size_t best = 0;
    for (const auto& [k, v] : by_key) best = std::max(best, v);
    return best;
  }
};

}  // namespace

int main() {
  constexpr size_t kUploads = 40;
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  cipher::Drbg rng(to_bytes("bench-anonymity"));
  ibc::Domain domain(ctx, rng);

  // ---- (a) linkability ------------------------------------------------------
  // Naive: same pseudonym, direct connection.
  Observer naive;
  ibc::Domain::Pseudonym fixed = domain.issue_pseudonym(rng);
  for (size_t i = 0; i < kUploads; ++i) {
    naive.see("patient-alice", hex_encode(curve::point_to_bytes(fixed.tp)));
  }

  // HCPP countermeasure: onion routing + per-upload pseudonym rotation.
  sim::Network net;
  sim::OnionNetwork onion(net, domain, 8);
  Observer protectedv;
  for (size_t i = 0; i < kUploads; ++i) {
    ibc::Domain::Pseudonym fresh = ibc::rerandomize_pseudonym(ctx, fixed, rng);
    std::string pseudonym = hex_encode(curve::point_to_bytes(fresh.tp));
    (void)onion.round_trip(
        "patient-alice", "s-server", to_bytes("upload-" + std::to_string(i)),
        [&](BytesView) { return to_bytes("ack"); }, rng);
    protectedv.see(onion.last_origin_seen(), pseudonym);
  }

  std::printf("E6a / §VI.B — upload linkability at the S-server (%zu uploads "
              "by one patient)\n",
              kUploads);
  std::printf("%-44s %20s\n", "configuration", "largest linkable cluster");
  std::printf("%-44s %20zu\n", "direct + fixed pseudonym (no countermeasure)",
              naive.largest_cluster());
  std::printf("%-44s %20zu\n", "onion-routed + rotated pseudonyms (HCPP)",
              protectedv.largest_cluster());

  // ---- (b) timing correlation -------------------------------------------------
  cipher::Drbg event_rng(to_bytes("bench-anonymity-events"));
  cipher::Drbg sched_rng(to_bytes("bench-anonymity-sched"));
  std::vector<double> events, immediate, jittered;
  // Uploads are deferred by up to a week — PHI is needed at the *next*
  // treatment, not in real time, so a long randomization window is free.
  sim::UploadScheduler scheduler(sched_rng, 0,
                                 7 * 86'400ull * 1'000'000'000ull);
  for (int i = 0; i < 300; ++i) {
    double t = static_cast<double>(event_rng.u64() % (86'400ull * 1'000'000'000ull));
    events.push_back(t);
    immediate.push_back(t + 60e9);  // uploads one minute after the visit
    jittered.push_back(static_cast<double>(
        scheduler.schedule(static_cast<uint64_t>(t))));
  }
  double corr_naive = sim::pearson_correlation(events, immediate);
  double corr_hcpp = sim::pearson_correlation(events, jittered);
  std::printf("\nE6b / §VI.C — visit-time vs upload-time correlation (300 "
              "visits)\n");
  std::printf("%-44s %20s\n", "configuration", "Pearson r");
  std::printf("%-44s %20.4f\n", "immediate upload (no countermeasure)",
              corr_naive);
  std::printf("%-44s %20.4f\n", "PRG-randomized schedule, 0-7d jitter (HCPP)",
              corr_hcpp);
  std::printf(
      "\nexpected shape: cluster %zu -> 1-2 and r %.2f -> near the noise "
      "floor, matching §VI's argument.\n",
      kUploads, corr_naive);
  return 0;
}
