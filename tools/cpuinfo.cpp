// Prints the host's detected CPU features and the kernel variants the
// library dispatches to, as one JSON object on stdout:
//
//   {"bmi2": true, "adx": true, "avx2": true, "sha": true,
//    "avx512ifma": true, "force_generic": false, "mont_kernel": "mulx-adx",
//    "lane_kernel": "avx512ifma", "chacha_kernel": "avx2",
//    "sha256_kernel": "sha-ni"}
//
// The same fields open every BENCH_*.json context block (bench/report.h);
// CI's forced-generic job reads this output to confirm the portable kernels
// are selected. Honors HCPP_FORCE_GENERIC like the library itself.
#include <cstdio>

#include "src/cipher/chacha20.h"
#include "src/hash/sha256.h"
#include "src/mp/dispatch.h"
#include "src/mp/mont.h"

int main() {
  const hcpp::mp::CpuFeatures& f = hcpp::mp::cpu_features();
  std::printf(
      "{\"bmi2\": %s, \"adx\": %s, \"avx2\": %s, \"sha\": %s, "
      "\"avx512ifma\": %s, \"force_generic\": %s, \"mont_kernel\": \"%s\", "
      "\"lane_kernel\": \"%s\", \"chacha_kernel\": \"%s\", "
      "\"sha256_kernel\": \"%s\"}\n",
      f.bmi2 ? "true" : "false", f.adx ? "true" : "false",
      f.avx2 ? "true" : "false", f.sha ? "true" : "false",
      f.avx512ifma ? "true" : "false",
      hcpp::mp::force_generic() ? "true" : "false",
      hcpp::mp::mont_kernel_name(), hcpp::mp::lane_kernel_name(),
      hcpp::cipher::chacha20_kernel_name(), hcpp::hash::sha256_kernel_name());
  return 0;
}
