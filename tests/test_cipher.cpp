// Known-answer and property tests for ChaCha20, AES-128-CTR, the
// encrypt-then-MAC AEAD, and the ChaCha20 DRBG.
#include <gtest/gtest.h>

#include "src/cipher/aead.h"
#include "src/cipher/chacha20.h"
#include "src/cipher/drbg.h"
#include "study/cipher/aes.h"

namespace hcpp::cipher {
namespace {

// RFC 8439 §2.4.2 test vector.
TEST(ChaCha20, Rfc8439Vector) {
  Bytes key = hex_decode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = hex_decode("000000000000004a00000000");
  Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  Bytes ct = chacha20(key, nonce, 1, plaintext);
  EXPECT_EQ(hex_encode(BytesView(ct).subspan(0, 32)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b");
  // Stream cipher: applying again decrypts.
  EXPECT_EQ(chacha20(key, nonce, 1, ct), plaintext);
}

TEST(ChaCha20, CounterContinuity) {
  Bytes key(32, 7);
  Bytes nonce(12, 3);
  Bytes data(150, 0);
  Bytes whole = chacha20(key, nonce, 0, data);
  // Encrypting the second 64-byte block separately with counter 1 matches.
  Bytes second(data.begin() + 64, data.begin() + 128);
  Bytes part = chacha20(key, nonce, 1, second);
  EXPECT_TRUE(std::equal(part.begin(), part.end(), whole.begin() + 64));
}

TEST(ChaCha20, RejectsBadKeyOrNonce) {
  EXPECT_THROW(chacha20(Bytes(31, 0), Bytes(12, 0), 0, Bytes{}),
               std::invalid_argument);
  EXPECT_THROW(chacha20(Bytes(32, 0), Bytes(11, 0), 0, Bytes{}),
               std::invalid_argument);
}

// FIPS 197 Appendix C.1 (AES-128).
TEST(Aes128, Fips197Vector) {
  Aes128 aes(hex_decode("000102030405060708090a0b0c0d0e0f"));
  Bytes pt = hex_decode("00112233445566778899aabbccddeeff");
  uint8_t out[16];
  aes.encrypt_block(pt.data(), out);
  EXPECT_EQ(hex_encode(BytesView(out, 16)),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, CtrRoundTrip) {
  Aes128 aes(Bytes(16, 0x42));
  Bytes nonce(12, 1);
  Bytes msg = to_bytes("counter mode handles arbitrary lengths, even 37b");
  Bytes ct = aes.ctr(nonce, 0, msg);
  EXPECT_NE(ct, msg);
  EXPECT_EQ(aes.ctr(nonce, 0, ct), msg);
}

TEST(Aes128, RejectsBadKey) {
  EXPECT_THROW(Aes128(Bytes(15, 0)), std::invalid_argument);
}

TEST(Aead, RoundTrip) {
  Drbg rng(to_bytes("aead"));
  Bytes key = rng.bytes(32);
  Bytes msg = to_bytes("protected health information");
  Bytes aad = to_bytes("header");
  Bytes box = aead_encrypt(key, msg, aad, rng);
  EXPECT_EQ(box.size(), msg.size() + kAeadOverhead);
  EXPECT_EQ(aead_decrypt(key, box, aad), msg);
}

TEST(Aead, DetectsTampering) {
  Drbg rng(to_bytes("aead-tamper"));
  Bytes key = rng.bytes(32);
  Bytes box = aead_encrypt(key, to_bytes("msg"), {}, rng);
  for (size_t i = 0; i < box.size(); i += 7) {
    Bytes mutated = box;
    mutated[i] ^= 0x01;
    EXPECT_THROW(aead_decrypt(key, mutated, {}), AuthError);
  }
}

TEST(Aead, BindsAad) {
  Drbg rng(to_bytes("aead-aad"));
  Bytes key = rng.bytes(32);
  Bytes box = aead_encrypt(key, to_bytes("msg"), to_bytes("aad-1"), rng);
  EXPECT_THROW(aead_decrypt(key, box, to_bytes("aad-2")), AuthError);
}

TEST(Aead, WrongKeyFails) {
  Drbg rng(to_bytes("aead-key"));
  Bytes box = aead_encrypt(rng.bytes(32), to_bytes("msg"), {}, rng);
  EXPECT_THROW(aead_decrypt(rng.bytes(32), box, {}), AuthError);
}

TEST(Aead, TruncatedBoxFails) {
  Drbg rng(to_bytes("aead-trunc"));
  Bytes key = rng.bytes(32);
  Bytes box = aead_encrypt(key, to_bytes("m"), {}, rng);
  EXPECT_THROW(aead_decrypt(key, BytesView(box).subspan(0, 10), {}),
               AuthError);
}

TEST(Aead, DeterministicWithFixedNonce) {
  Bytes key(32, 5);
  Bytes nonce(12, 9);
  Bytes a = aead_encrypt_with_nonce(key, nonce, to_bytes("x"), {});
  Bytes b = aead_encrypt_with_nonce(key, nonce, to_bytes("x"), {});
  EXPECT_EQ(a, b);
}

TEST(Drbg, DeterministicFromSeed) {
  Drbg a(to_bytes("seed"));
  Drbg b(to_bytes("seed"));
  EXPECT_EQ(a.bytes(100), b.bytes(100));
  Drbg c(to_bytes("other"));
  EXPECT_NE(a.bytes(100), c.bytes(100));
}

TEST(Drbg, ReseedChangesStream) {
  Drbg a(to_bytes("seed"));
  Drbg b(to_bytes("seed"));
  (void)a.bytes(16);
  (void)b.bytes(16);
  a.reseed(to_bytes("entropy"));
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, U64CoversRange) {
  Drbg rng(to_bytes("u64"));
  uint64_t acc_or = 0, acc_and = ~0ull;
  for (int i = 0; i < 64; ++i) {
    uint64_t v = rng.u64();
    acc_or |= v;
    acc_and &= v;
  }
  // Each bit position saw both values with overwhelming probability.
  EXPECT_EQ(acc_or, ~0ull);
  EXPECT_EQ(acc_and, 0ull);
}

TEST(Drbg, SystemInstancesDiffer) {
  Drbg a = Drbg::system();
  Drbg b = Drbg::system();
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

}  // namespace
}  // namespace hcpp::cipher
