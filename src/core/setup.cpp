#include "src/core/setup.h"

#include <stdexcept>

namespace hcpp::core {

Deployment Deployment::create(const DeploymentConfig& config) {
  Deployment d;
  d.net = std::make_unique<sim::Network>();
  Bytes seed_bytes = to_bytes("hcpp-deployment-seed");
  for (int i = 0; i < 8; ++i) {
    seed_bytes.push_back(static_cast<uint8_t>(config.seed >> (8 * i)));
  }
  d.rng = std::make_unique<cipher::Drbg>(seed_bytes);

  const curve::CurveCtx& ctx = curve::params(config.params);
  d.aserver =
      std::make_unique<AServer>(*d.net, ctx, "state-a-server", *d.rng);
  d.sserver =
      std::make_unique<SServer>(*d.net, *d.aserver, "hospital-s-server");
  d.on_duty = std::make_unique<Physician>(*d.net, *d.aserver, "dr-on-duty");
  d.off_duty = std::make_unique<Physician>(*d.net, *d.aserver, "dr-off-duty");
  d.aserver->set_on_duty("dr-on-duty", true);
  d.aserver->set_on_duty("dr-off-duty", false);
  d.anchors = std::make_unique<ledger::AnchorChain>(
      d.aserver->domain(), ledger::default_anchor_authorities());

  d.patient = std::make_unique<Patient>(*d.net, "patient-alice", *d.rng);
  d.patient->setup(*d.aserver, d.sserver->id());
  d.patient->add_files(generate_phi_collection(
      config.n_phi_files, d.patient->rng(), /*first_id=*/1,
      config.keywords_per_file, config.file_content_bytes));

  d.family = std::make_unique<Family>(*d.net, "family-bob");
  d.pdevice = std::make_unique<PDevice>(*d.net, "p-device", *d.rng);
  d.mu_family = d.rng->bytes(32);
  d.mu_pdevice = d.rng->bytes(32);

  if (config.store_phi) {
    if (!d.patient->try_store_phi(*d.sserver).ok()) {
      throw std::runtime_error("Deployment: PHI storage failed");
    }
  }
  if (config.assign_privileges) {
    if (!config.store_phi) {
      throw std::invalid_argument(
          "Deployment: privileges need a stored collection (KI is built "
          "during storage)");
    }
    if (!assign_privilege(*d.patient, *d.family, d.mu_family) ||
        !assign_privilege(*d.patient, *d.pdevice, d.mu_pdevice)) {
      throw std::runtime_error("Deployment: privilege assignment failed");
    }
  }
  return d;
}

std::vector<std::string> Deployment::all_keywords() const {
  return patient->keyword_index().dictionary();
}

}  // namespace hcpp::core
