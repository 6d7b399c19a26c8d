// Quickstart: the complete HCPP lifecycle in ~60 lines of API calls —
// system setup, private PHI storage, privilege assignment, a common-case
// keyword retrieval, and a revocation.
//
//   $ ./quickstart
#include <cstdio>

#include "src/core/setup.h"

using namespace hcpp;
using namespace hcpp::core;

int main() {
  // 1. Wire a deployment: state A-server (PKG), hospital S-server, patient
  //    with 12 synthetic PHI files, family, P-device, two physicians.
  DeploymentConfig cfg;
  cfg.n_phi_files = 12;
  Deployment d = Deployment::create(cfg);
  std::printf("deployment up: %zu PHI files encrypted and stored at '%s'\n",
              d.patient->files().size(), d.sserver->id().c_str());
  std::printf("the server sees %zu account(s), keyed by pseudonym only\n",
              d.sserver->account_count());

  // 2. Common-case retrieval (§IV.D): the physician asks for one category of
  //    records; the patient searches by keyword and decrypts on the phone.
  //    (Pick a category keyword that exists in this synthetic collection.)
  std::string category_kw;
  for (const std::string& kw : d.all_keywords()) {
    if (kw.rfind("category:", 0) == 0) {
      category_kw = kw;
      break;
    }
  }
  std::vector<std::string> keywords = {category_kw};
  std::vector<sse::PlainFile> files =
      d.patient->try_retrieve(*d.sserver, keywords).value_or({});
  std::printf("\nretrieve('%s') -> %zu file(s):\n", category_kw.c_str(),
              files.size());
  for (const sse::PlainFile& f : files) {
    std::printf("  #%llu %s (%zu bytes)\n",
                static_cast<unsigned long long>(f.id), f.name.c_str(),
                f.content.size());
  }

  // 3. The family can retrieve on the patient's behalf (§IV.E.1).
  std::vector<sse::PlainFile> by_family =
      d.family->try_emergency_retrieve(*d.sserver, keywords).value_or({});
  std::printf("\nfamily emergency retrieval -> %zu file(s) (same result)\n",
              by_family.size());

  // 4. The P-device is lost: revoke it (§IV.C / §VI.A). The device still
  //    holds keys but the S-server now rejects its trapdoors.
  if (!d.patient->try_revoke_member(*d.sserver, kPDeviceSlot).ok()) {
    std::printf("revocation failed\n");
    return 1;
  }
  Result<std::vector<sse::PlainFile>> after =
      d.family->try_emergency_retrieve(*d.sserver, keywords);
  std::printf("\nP-device revoked; family access still works: %s\n",
              after.ok() && !after.value().empty() ? "yes" : "no (BUG)");

  // 5. Communication summary from the built-in accounting (§V.B.2).
  std::printf("\ntraffic so far: %llu messages, %llu bytes\n",
              static_cast<unsigned long long>(d.net->total().messages),
              static_cast<unsigned long long>(d.net->total().bytes));
  return 0;
}
