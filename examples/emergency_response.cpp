// Emergency response walk-through (§IV.E.2): a cardiac patient collapses;
// the on-duty emergency physician uses the P-device path to obtain both the
// PHI (cardiology history) and the MHI (the last days of monitored vitals
// that explain the collapse). An off-duty physician is turned away.
//
//   $ ./emergency_response
#include <cstdio>

#include "src/core/setup.h"
#include "src/sim/transport.h"

using namespace hcpp;
using namespace hcpp::core;

int main() {
  DeploymentConfig cfg;
  cfg.n_phi_files = 20;
  cfg.seed = 911;
  Deployment d = Deployment::create(cfg);

  // The patient is a high-risk cardiac case: the P-device has been
  // collecting vitals and uploading them role-encrypted every day.
  cipher::Drbg vitals_rng(to_bytes("vitals"));
  const std::string role = "2011-04-12|emergency|gainesville";
  d.pdevice->collect_mhi(
      generate_mhi_window("2011-04-11", 600, vitals_rng, 0.01));
  d.pdevice->collect_mhi(
      generate_mhi_window("2011-04-12", 600, vitals_rng, 0.15));
  std::vector<std::string> extra_kws = {"patient-risk:cardiac"};
  if (!d.pdevice->try_store_mhi(*d.aserver, *d.sserver, role, extra_kws).ok()) {
    std::printf("MHI upload failed\n");
    return 1;
  }
  std::printf("P-device uploaded 2 role-encrypted MHI windows to '%s'\n",
              d.sserver->id().c_str());

  // --- The emergency ---------------------------------------------------------
  std::printf("\n== patient collapses; physician presses the emergency "
              "button ==\n");
  d.pdevice->press_emergency_button();

  // An off-duty physician cannot get a passcode.
  auto denied = d.off_duty->try_request_passcode(*d.aserver,
                                                 d.patient->tp_bytes());
  std::printf("off-duty physician passcode request: %s\n",
              denied.ok() ? "GRANTED (BUG)" : "denied");

  // The on-duty caregiver authenticates with IBS; the A-server returns the
  // one-time passcode and pushes it to the P-device under IBE_TPp.
  auto pass =
      d.on_duty->try_request_passcode(*d.aserver, d.patient->tp_bytes());
  if (!pass.ok() ||
      !d.pdevice->deliver_passcode(*d.aserver, pass.value().for_device) ||
      !d.pdevice->enter_passcode(d.on_duty->id(), pass.value().nonce)) {
    std::printf("emergency authentication failed\n");
    return 1;
  }
  std::printf("on-duty physician authenticated; one-time passcode "
              "accepted\n");

  // PHI: the cardiology history.
  std::vector<std::string> kws = {"category:cardiology"};
  std::vector<sse::PlainFile> phi =
      d.pdevice->try_emergency_retrieve(*d.sserver, kws).value_or({});
  std::printf("PHI retrieved via P-device: %zu cardiology file(s)\n",
              phi.size());

  // MHI: today's vitals, decrypted with the extracted role key.
  auto role_key = d.on_duty->try_request_role_key(*d.aserver, role);
  if (!role_key.ok()) {
    std::printf("role key extraction failed\n");
    return 1;
  }
  std::vector<MhiWindow> vitals =
      d.on_duty
          ->try_retrieve_mhi(*d.sserver, role, role_key.value(),
                             "day:2011-04-12")
          .value_or({});
  for (const MhiWindow& w : vitals) {
    size_t anomalies = 0;
    double peak_hr = 0;
    for (const MhiSample& s : w.samples) {
      if (s.anomaly) ++anomalies;
      peak_hr = std::max(peak_hr, s.heart_rate_bpm);
    }
    std::printf(
        "MHI window %s: %zu samples, %zu anomalous, peak HR %.0f bpm\n",
        w.day.c_str(), w.samples.size(), anomalies, peak_hr);
  }

  // Accountability artifacts exist on both sides.
  std::printf("\naccountability: P-device holds %zu RD record(s), A-server "
              "holds %zu trace(s), patient alerted %d time(s)\n",
              d.pdevice->rd_ledger().size(), d.aserver->trace_ledger().size(),
              d.pdevice->alert_count());

  // --- The same rescue over a degraded network -------------------------------
  // The ambulance's uplink is bad: 20% of messages vanish, 10% arrive twice.
  // The retrying transport (seeded, so this run replays exactly) gets the
  // family-based §IV.E.1 retrieval through anyway.
  std::printf("\n== aftershock: family retrieval over a lossy link "
              "(20%% loss, 10%% duplication) ==\n");
  sim::FaultPlan plan;
  plan.seed = 911;
  plan.default_faults.drop = 0.20;
  plan.default_faults.duplicate = 0.10;
  d.net->set_fault_plan(plan);
  d.net->transport().reset_stats();
  Result<std::vector<sse::PlainFile>> rescue =
      d.family->try_emergency_retrieve(*d.sserver, kws);
  sim::DeliveryStats wire = d.net->transport().total();
  if (!rescue.ok()) {
    std::printf("family retrieval failed (%s) after %u attempts\n",
                to_string(rescue.error().code), rescue.error().attempts);
    return 1;
  }
  std::printf("family retrieved %zu file(s) despite the loss: %llu wire "
              "attempts for %llu requests (%llu retries, %llu duplicates "
              "suppressed)\n",
              rescue.value().size(),
              static_cast<unsigned long long>(wire.attempts),
              static_cast<unsigned long long>(wire.requests),
              static_cast<unsigned long long>(wire.retries),
              static_cast<unsigned long long>(wire.duplicates_suppressed));
  return 0;
}
