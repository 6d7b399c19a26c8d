#include "src/hash/sha256_shani.h"

#include <cstdlib>

#if defined(__x86_64__) && defined(__SHA__) && defined(__SSE4_1__)
#define HCPP_HAVE_SHANI 1
#include <immintrin.h>
#endif

namespace hcpp::hash::shani {

#ifdef HCPP_HAVE_SHANI

bool compiled() noexcept { return true; }

// SHA256RNDS2 keeps the working variables as two vectors, ABEF and CDGH, and
// runs two rounds per instruction on the low two words of its message
// operand. The 64-word schedule is a ring of four vectors: group i (words
// 4i..4i+3) overwrites the slot of group i − 4, from which SHA256MSG1/MSG2
// and one ALIGNR derive W[t] = σ1(W[t−2]) + W[t−7] + σ0(W[t−15]) + W[t−16].
void compress_blocks(uint32_t state[8], const uint8_t* data,
                     size_t nblocks) noexcept {
  auto load = [](const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  };
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  __m128i cdab = _mm_shuffle_epi32(load(state), 0xB1);
  __m128i efgh = _mm_shuffle_epi32(load(state + 4), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks != 0; --nblocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i& cur = w[i & 3];
      if (i < 4) {
        cur = _mm_shuffle_epi8(load(data + 16 * i), bswap);
      } else {
        const __m128i& prev = w[(i + 3) & 3];
        cur = _mm_add_epi32(_mm_sha256msg1_epu32(cur, w[(i + 1) & 3]),
                            _mm_alignr_epi8(prev, w[(i + 2) & 3], 4));
        cur = _mm_sha256msg2_epu32(cur, prev);
      }
      __m128i wk = _mm_add_epi32(cur, load(kSha256K + 4 * i));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // ABEF/CDGH back to (a, b, c, d) and (e, f, g, h).
  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#else  // !HCPP_HAVE_SHANI

// Built without SHA-NI: compiled() says so and the kernel is a trap — the
// dispatcher never selects it when compiled() is false.
bool compiled() noexcept { return false; }

void compress_blocks(uint32_t*, const uint8_t*, size_t) noexcept {
  std::abort();
}

#endif  // HCPP_HAVE_SHANI

}  // namespace hcpp::hash::shani
