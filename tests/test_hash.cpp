// Known-answer and property tests for SHA-256, HMAC-SHA256 and HKDF.
#include <gtest/gtest.h>

#include "src/hash/hkdf.h"
#include "src/hash/hmac.h"
#include "src/hash/sha256.h"

namespace hcpp::hash {
namespace {

std::string digest_hex(const Digest& d) {
  return hex_encode(BytesView(d.data(), d.size()));
}

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(
      digest_hex(sha256(Bytes{})),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      digest_hex(sha256(to_bytes("abc"))),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      digest_hex(sha256(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(
      digest_hex(h.finish()),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  for (size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(BytesView(data).subspan(0, split));
    h.update(BytesView(data).subspan(split));
    EXPECT_EQ(h.finish(), sha256(data)) << "split at " << split;
  }
}

TEST(Sha256, ResetReusesObject) {
  Sha256 h;
  h.update(to_bytes("abc"));
  (void)h.finish();
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(digest_hex(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// RFC 4231 test cases.
TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(
      hex_encode(hmac_sha256(key, to_bytes("Hi There"))),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      hex_encode(hmac_sha256(to_bytes("Jefe"),
                             to_bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(
      hex_encode(hmac_sha256(
          key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key "
                        "First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, TruncationAndVerify) {
  Bytes key = to_bytes("k");
  Bytes msg = to_bytes("m");
  Bytes t16 = hmac_sha256_trunc(key, msg, 16);
  EXPECT_EQ(t16.size(), 16u);
  Bytes full = hmac_sha256(key, msg);
  EXPECT_TRUE(ct_equal(t16, BytesView(full).subspan(0, 16)));
  // Tags are checked by constant-time comparison against the full tag.
  Bytes bad = full;
  bad[0] ^= 1;
  EXPECT_TRUE(ct_equal(full, hmac_sha256(key, msg)));
  EXPECT_FALSE(ct_equal(bad, hmac_sha256(key, msg)));
  EXPECT_FALSE(ct_equal(Bytes{}, hmac_sha256(key, msg)));
  EXPECT_FALSE(ct_equal(t16, hmac_sha256(key, msg)));
  EXPECT_THROW(hmac_sha256_trunc(key, msg, 33), std::invalid_argument);
}

TEST(Hmac, KeySensitivity) {
  Bytes m = to_bytes("message");
  EXPECT_NE(hmac_sha256(to_bytes("key1"), m), hmac_sha256(to_bytes("key2"), m));
}

// RFC 5869 test case 1.
TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = hex_decode("000102030405060708090a0b0c");
  Bytes info = hex_decode("f0f1f2f3f4f5f6f7f8f9");
  Bytes prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(
      hex_encode(prk),
      "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 test case 3 (empty salt and info).
TEST(Hkdf, Rfc5869Case3) {
  Bytes ikm(22, 0x0b);
  Bytes okm = hkdf(ikm, {}, {}, 42);
  EXPECT_EQ(hex_encode(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, OutputLengthBounds) {
  Bytes prk = hkdf_extract({}, to_bytes("ikm"));
  EXPECT_EQ(hkdf_expand(prk, {}, 0).size(), 0u);
  EXPECT_EQ(hkdf_expand(prk, {}, 255 * 32).size(), size_t{255 * 32});
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), std::invalid_argument);
}

TEST(Hkdf, InfoSeparatesOutputs) {
  Bytes ikm = to_bytes("shared secret");
  EXPECT_NE(hkdf(ikm, {}, to_bytes("ctx-a"), 32),
            hkdf(ikm, {}, to_bytes("ctx-b"), 32));
}

}  // namespace
}  // namespace hcpp::hash
