// Cross-domain availability (§IV.A, §V.A): the hierarchical IBC tree —
// federal root PKG, state A-servers, hospitals — lets a Tennessee patient
// visiting Florida establish a secure session with a Florida hospital's
// S-server knowing only the federal root parameters, then run the ordinary
// HCPP protocols in the visited domain.
//
//   $ ./multi_hospital
#include <cstdio>

#include "src/core/setup.h"
#include "src/ibc/hibc.h"

using namespace hcpp;
using namespace hcpp::core;

int main() {
  const curve::CurveCtx& ctx = curve::params(curve::ParamSet::kTest);
  cipher::Drbg rng(to_bytes("multi-hospital"));

  // --- Build the national hierarchy (root = federal A-server). --------------
  ibc::HibcNode federal = ibc::HibcNode::root(ctx, rng);
  ibc::HibcNode florida = federal.derive_child("florida", rng);
  ibc::HibcNode tennessee = federal.derive_child("tennessee", rng);
  ibc::HibcNode shands = florida.derive_child("shands-s-server", rng);
  std::printf("hierarchy: federal -> {florida, tennessee}; florida -> "
              "shands-s-server\n");

  // --- The patient (enrolled in Tennessee) travels to Florida. ---------------
  // She encrypts a session-setup request to the Florida S-server's identity
  // path using only the federal public parameters.
  std::vector<std::string> shands_path = {"florida", "shands-s-server"};
  Bytes session_key = rng.bytes(32);
  io::Writer req;
  req.str("session-setup");
  req.bytes(session_key);
  ibc::HibcCiphertext ct = ibc::hibc_encrypt(federal.public_params(),
                                             shands_path, req.data(), rng);
  std::printf("patient encrypted a %zu-byte session request to "
              "florida/shands-s-server\n",
              ct.size());

  // Only the named hospital can open it; the hospital signs its reply with
  // its hierarchical key so the patient can verify the responder.
  Bytes opened = ibc::hibc_decrypt(shands, ct);
  io::Reader r(opened);
  std::printf("hospital opened the request: type='%s'\n", r.str().c_str());
  Bytes recovered_key = r.bytes();
  Bytes reply = to_bytes("session-accepted");
  ibc::HibcSignature sig = ibc::hibc_sign(shands, reply);
  bool verified = ibc::hibc_verify(federal.public_params(), shands_path,
                                   reply, sig);
  std::printf("hospital reply signature verifies against its identity "
              "path: %s\n",
              verified ? "yes" : "NO");
  std::printf("shared session key established: %s\n",
              recovered_key == session_key ? "yes" : "NO");

  // A sibling hospital in Tennessee cannot open the same request.
  ibc::HibcNode utmc = tennessee.derive_child("ut-medical-s-server", rng);
  bool sibling_failed = false;
  try {
    (void)ibc::hibc_decrypt(utmc, ct);
  } catch (const std::exception&) {
    sibling_failed = true;
  }
  std::printf("a Tennessee hospital cannot open it: %s\n",
              sibling_failed ? "correct" : "BUG");

  // --- With the session up, the visited domain behaves like home. ------------
  // (The in-state machinery is the standard deployment; the session above is
  // how the patient bootstraps trust with the out-of-state hospital.)
  DeploymentConfig cfg;
  cfg.n_phi_files = 8;
  cfg.seed = 4242;
  Deployment visited = Deployment::create(cfg);
  std::vector<std::string> kws = {visited.all_keywords().front()};
  Result<std::vector<sse::PlainFile>> files =
      visited.patient->try_retrieve(*visited.sserver, kws);
  std::printf(
      "\nordinary retrieval in the visited domain returns %zu file(s)\n",
      files.value_or({}).size());
  return (verified && sibling_failed && files.ok()) ? 0 : 1;
}
