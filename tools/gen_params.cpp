// Generates a fresh pairing parameter set (Solinas q = 2^(n−1) + 2^b ± 1,
// p = c·q − 1 for a random c, generator) and prints it as hex, plus
// validation output. Useful for minting alternative named sets; the
// library's built-in kTest/kProduction sets are generated deterministically
// at first use from fixed seeds.
//
//   $ ./gen_params [q_bits] [p_bits] [seed]
#include <cstdio>
#include <cstdlib>

#include "src/cipher/drbg.h"
#include "src/curve/pairing.h"
#include "src/curve/params.h"

using namespace hcpp;

int main(int argc, char** argv) {
  size_t q_bits = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 160;
  size_t p_bits = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 512;
  const char* seed = argc > 3 ? argv[3] : "gen-params-default-seed";

  cipher::Drbg rng(to_bytes(seed));
  std::printf("generating q=%zu-bit Solinas prime, p=%zu-bit prime "
              "(p = c*q - 1, p ≡ 3 mod 4)...\n",
              q_bits, p_bits);
  curve::GeneratedParams gp = curve::generate_params(q_bits, p_bits, rng);
  auto ctx = curve::make_curve(gp, "generated");
  std::printf("p  = %s\n", gp.p.to_hex().c_str());
  std::printf("q  = %s\n", gp.q.to_hex().c_str());
  std::printf("c  = %s\n", ctx->cofactor.to_hex().c_str());
  std::printf("gx = %s\n", gp.gx.to_hex().c_str());
  std::printf("gy = %s\n", gp.gy.to_hex().c_str());

  curve::Point g = curve::generator(*ctx);
  std::printf("validation: on-curve=%d  order-q=%d  pairing-nondegenerate=%d\n",
              curve::on_curve(*ctx, g),
              curve::mul(*ctx, g, ctx->q).infinity,
              !curve::pairing(*ctx, g, g).is_one());
  return 0;
}
