// IBC domain, pseudonyms, shared keys, BF-IBE and Hess IBS.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <thread>

#include "src/cipher/drbg.h"
#include "src/ibc/ibe.h"
#include "src/ibc/ibs.h"
#include "src/obs/metrics.h"
#include "src/par/pool.h"
#include "tests/force_generic.h"

namespace hcpp::ibc {
namespace {

const curve::CurveCtx& ctx() { return curve::params(curve::ParamSet::kTest); }

Domain make_domain(std::string_view seed) {
  cipher::Drbg rng(to_bytes(seed));
  return Domain(ctx(), rng);
}

TEST(Domain, ExtractSatisfiesKeyEquation) {
  Domain d = make_domain("dom-extract");
  curve::Point gamma = d.extract("dr-alice");
  // ê(Γ, P) == ê(H1(id), Ppub)
  curve::Gt lhs = curve::pairing(ctx(), gamma, curve::generator(ctx()));
  curve::Gt rhs =
      curve::pairing(ctx(), Domain::public_key(ctx(), "dr-alice"),
                     d.pub().p_pub);
  EXPECT_EQ(lhs, rhs);
}

TEST(Domain, SharedKeysAgreeBothDirections) {
  Domain d = make_domain("dom-shared");
  curve::Point gamma_a = d.extract("alice");
  curve::Point gamma_b = d.extract("bob");
  Bytes k_ab = shared_key_with_id(ctx(), gamma_a, "bob");
  Bytes k_ba = shared_key_with_id(ctx(), gamma_b, "alice");
  EXPECT_EQ(k_ab, k_ba);
  EXPECT_EQ(k_ab.size(), 32u);
  // Third parties derive something different.
  curve::Point gamma_c = d.extract("carol");
  EXPECT_NE(shared_key_with_id(ctx(), gamma_c, "bob"), k_ab);
}

TEST(Domain, MemoisedPublicKeyEqualsHashToPoint) {
  obs::Registry reg;
  obs::Registry* previous = obs::attached();
  obs::attach(&reg);
  for (int round = 0; round < 2; ++round) {
    for (std::string_view id : {"memo-dr-a", "memo-dr-b", ""}) {
      EXPECT_EQ(Domain::public_key(ctx(), id),
                curve::hash_to_point(ctx(), to_bytes(id)))
          << id << " round " << round;
    }
  }
  obs::attach(previous);
  EXPECT_EQ(reg.counter(obs::kH1MemoMisses), 3u);
  EXPECT_EQ(reg.counter(obs::kH1MemoHits), 3u);
}

TEST(Domain, PpubLineTableMatchesFullPairing) {
  Domain d = make_domain("dom-ppub");
  cipher::Drbg rng(to_bytes("dom-ppub-rng"));
  const PublicParams& pub = d.pub();
  ASSERT_NE(pub.ppub_pre, nullptr);
  for (const curve::Point& x :
       {Domain::public_key(ctx(), "dr-a"), d.issue_pseudonym(rng).tp,
        curve::generator(ctx()), curve::Point::at_infinity()}) {
    EXPECT_EQ(pub.ppub_pre->pairing_with(x),
              curve::pairing(ctx(), x, pub.p_pub));
  }
  // Copies of the public parameters share the one table.
  PublicParams copy = pub;
  EXPECT_EQ(copy.ppub_pre.get(), pub.ppub_pre.get());
}

TEST(Domain, PseudonymValidityAndSharedKey) {
  Domain d = make_domain("dom-pseudo");
  cipher::Drbg rng(to_bytes("pseudo-rng"));
  Domain::Pseudonym pn = d.issue_pseudonym(rng);
  EXPECT_TRUE(pseudonym_valid(d.pub(), pn));
  // Patient side: ê(Γp, H1(server)); server side: ê(Γ_server, TPp).
  curve::Point gamma_s = d.extract("s-server");
  Bytes patient_side = shared_key_with_id(ctx(), pn.gamma, "s-server");
  Bytes server_side = shared_key_with_point(ctx(), gamma_s, pn.tp);
  EXPECT_EQ(patient_side, server_side);
}

TEST(Domain, RerandomizedPseudonymStillValidAndUnlinkable) {
  Domain d = make_domain("dom-reroll");
  cipher::Drbg rng(to_bytes("reroll-rng"));
  Domain::Pseudonym base = d.issue_pseudonym(rng);
  Domain::Pseudonym fresh = rerandomize_pseudonym(ctx(), base, rng);
  EXPECT_TRUE(pseudonym_valid(d.pub(), fresh));
  EXPECT_FALSE(fresh.tp == base.tp);  // unlinkable public halves
  // The fresh pair still derives correct shared keys.
  curve::Point gamma_s = d.extract("s-server");
  EXPECT_EQ(shared_key_with_id(ctx(), fresh.gamma, "s-server"),
            shared_key_with_point(ctx(), gamma_s, fresh.tp));
}

TEST(Domain, ForgedPseudonymRejected) {
  Domain d = make_domain("dom-forge");
  cipher::Drbg rng(to_bytes("forge-rng"));
  Domain::Pseudonym pn = d.issue_pseudonym(rng);
  // An attacker without s0 pairs TP with a random "private" half.
  Domain::Pseudonym forged{
      pn.tp, curve::mul(ctx(), curve::generator(ctx()),
                        curve::random_scalar(ctx(), rng))};
  EXPECT_FALSE(pseudonym_valid(d.pub(), forged));
}

TEST(Ibe, RoundTripNamedIdentity) {
  Domain d = make_domain("ibe-rt");
  cipher::Drbg rng(to_bytes("ibe-rng"));
  Bytes msg = to_bytes("one-time passcode 123456");
  IbeCiphertext ct = ibe_encrypt(d.pub(), "p-device", msg, rng);
  EXPECT_EQ(ibe_decrypt(ctx(), d.extract("p-device"), ct), msg);
}

TEST(Ibe, WrongIdentityCannotDecrypt) {
  Domain d = make_domain("ibe-wrong");
  cipher::Drbg rng(to_bytes("ibe-rng2"));
  IbeCiphertext ct = ibe_encrypt(d.pub(), "p-device", to_bytes("secret"), rng);
  EXPECT_THROW(ibe_decrypt(ctx(), d.extract("intruder"), ct),
               cipher::AuthError);
}

TEST(Ibe, PseudonymPointRecipient) {
  Domain d = make_domain("ibe-point");
  cipher::Drbg rng(to_bytes("ibe-rng3"));
  Domain::Pseudonym pn = d.issue_pseudonym(rng);
  Bytes msg = to_bytes("IBE to TPp");
  IbeCiphertext ct = ibe_encrypt_to_point(d.pub(), pn.tp, msg, rng);
  EXPECT_EQ(ibe_decrypt(ctx(), pn.gamma, ct), msg);
}

TEST(Ibe, TamperedCiphertextRejected) {
  Domain d = make_domain("ibe-tamper");
  cipher::Drbg rng(to_bytes("ibe-rng4"));
  IbeCiphertext ct = ibe_encrypt(d.pub(), "id", to_bytes("msg"), rng);
  ct.box[ct.box.size() / 2] ^= 1;
  EXPECT_THROW(ibe_decrypt(ctx(), d.extract("id"), ct), cipher::AuthError);
}

TEST(Ibe, SerializationRoundTrip) {
  Domain d = make_domain("ibe-ser");
  cipher::Drbg rng(to_bytes("ibe-rng5"));
  IbeCiphertext ct = ibe_encrypt(d.pub(), "id", to_bytes("payload"), rng);
  IbeCiphertext back = IbeCiphertext::from_bytes(ctx(), ct.to_bytes());
  EXPECT_EQ(ibe_decrypt(ctx(), d.extract("id"), back), to_bytes("payload"));
  EXPECT_EQ(ct.size(), ct.to_bytes().size());
}

TEST(Ibe, EmptyPlaintext) {
  Domain d = make_domain("ibe-empty");
  cipher::Drbg rng(to_bytes("ibe-rng6"));
  IbeCiphertext ct = ibe_encrypt(d.pub(), "id", Bytes{}, rng);
  EXPECT_TRUE(ibe_decrypt(ctx(), d.extract("id"), ct).empty());
}

// decrypt_batch against per-item decrypt: the batch runs on a context with
// IFMA lanes (when the host has them) and on a forced-generic one, and the
// per-item reference on both (MULX and portable scalar kernels). Positions
// 2, 4, 5 and 6 of every seven hold an item decrypt refuses: a tampered box,
// a wrong-key ciphertext, U = infinity and U = (0, 0), whose Miller value is
// real, so a lane batch sends it down the scalar t = ±1 branch.
TEST(IbeBatch, MatchesPerItemDecryptOnLaneMulxAndPortableContexts) {
  const curve::GeneratedParams gp{ctx().p, ctx().q, ctx().gx, ctx().gy};
  std::unique_ptr<curve::CurveCtx> lanes, portable;
  {
    ForceGenericGuard guard(false);
    lanes = curve::make_curve(gp, "lanes");
  }
  {
    ForceGenericGuard guard(true);
    portable = curve::make_curve(gp, "portable");
  }
  ASSERT_EQ(portable->fp.mont.lanes(), nullptr);
  cipher::Drbg rng(to_bytes("ibe-batch"));
  const Domain d(*lanes, rng);
  const curve::Point key = d.extract("role:er-physician");
  const curve::Point zero{field::Fp::zero(&lanes->fp),
                          field::Fp::zero(&lanes->fp), false};
  auto make = [&](size_t i) {
    const Bytes msg = to_bytes("window " + std::to_string(i));
    const bool wrong_key = i % 7 == 4;
    IbeCiphertext ct = ibe_encrypt(
        d.pub(), wrong_key ? "role:nurse" : "role:er-physician", msg, rng);
    switch (i % 7) {
      case 2: ct.box[ct.box.size() / 2] ^= 1; break;  // tampered box
      case 5: ct.u = curve::Point::at_infinity(); break;
      case 6: ct.u = zero; break;  // on the curve; a real Miller value
      default: break;
    }
    return std::make_pair(ct, i % 7 == 0 || i % 7 == 1 || i % 7 == 3
                                  ? std::optional<Bytes>(msg)
                                  : std::nullopt);
  };
  // Points and ciphertexts moved to another context by their encoding.
  auto on = [](const curve::CurveCtx& c, const curve::Point& pt) {
    return curve::point_from_bytes(c, curve::point_to_bytes(pt));
  };
  auto per_item = [](const IbeDecryptor& dec, const IbeCiphertext& ct) {
    try {
      return std::optional<Bytes>(dec.decrypt(ct));
    } catch (const cipher::AuthError&) {
      return std::optional<Bytes>();
    }
  };
  const IbeDecryptor lane_dec(*lanes, key);
  const IbeDecryptor portable_dec(*portable, on(*portable, key));
  for (size_t n : {0, 1, 2, 3, 8, 9, 33}) {
    std::vector<IbeCiphertext> cts, moved;
    std::vector<std::optional<Bytes>> want;
    for (size_t i = 0; i < n; ++i) {
      auto [ct, pt] = make(i);
      moved.push_back({on(*portable, ct.u), ct.box});
      cts.push_back(std::move(ct));
      want.push_back(std::move(pt));
    }
    obs::Registry batch_reg, item_reg;
    obs::Registry* previous = obs::attached();
    obs::attach(&batch_reg);
    const std::vector<std::optional<Bytes>> got = lane_dec.decrypt_batch(cts);
    obs::attach(&item_reg);
    for (const IbeCiphertext& ct : cts) (void)per_item(lane_dec, ct);
    obs::attach(previous);
    ASSERT_EQ(got, want) << "n=" << n;
    EXPECT_EQ(portable_dec.decrypt_batch(moved), want) << "n=" << n;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(per_item(lane_dec, cts[i]), want[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(per_item(portable_dec, moved[i]), want[i])
          << "n=" << n << " i=" << i;
    }
    // One fixed pairing per item; a final exponentiation per finite U.
    for (const char* name : {obs::kPairingFixed, obs::kPairing}) {
      EXPECT_EQ(batch_reg.counter(name), item_reg.counter(name))
          << name << " n=" << n;
    }
    EXPECT_EQ(batch_reg.counter(obs::kFinalExpBatched),
              item_reg.counter(obs::kFinalExp))
        << "n=" << n;
  }
  // Each refused kind alone, through the scalar path of a one-item batch.
  for (size_t i : {2, 4, 5, 6}) {
    auto [ct, pt] = make(i);
    ASSERT_FALSE(pt.has_value());
    EXPECT_EQ(lane_dec.decrypt_batch(std::span(&ct, 1)),
              std::vector<std::optional<Bytes>>{std::nullopt})
        << "kind " << i;
  }
}

TEST(IbePrecomp, MatchesOnlineEncryption) {
  Domain d = make_domain("ibe-pre");
  cipher::Drbg rng(to_bytes("ibe-pre-rng"));
  IbePrecomputed pre(d.pub(), "p-device");
  Bytes msg = to_bytes("precomputed path");
  IbeCiphertext ct = pre.encrypt(msg, rng);
  EXPECT_EQ(ibe_decrypt(ctx(), d.extract("p-device"), ct), msg);
}

TEST(IbePrecomp, PseudonymRecipient) {
  Domain d = make_domain("ibe-pre-pt");
  cipher::Drbg rng(to_bytes("ibe-pre-pt-rng"));
  Domain::Pseudonym pn = d.issue_pseudonym(rng);
  IbePrecomputed pre(d.pub(), pn.tp);
  IbeCiphertext ct = pre.encrypt(to_bytes("m"), rng);
  EXPECT_EQ(ibe_decrypt(ctx(), pn.gamma, ct), to_bytes("m"));
}

TEST(IbeCca, RoundTrip) {
  Domain d = make_domain("cca-rt");
  cipher::Drbg rng(to_bytes("cca-rng"));
  Bytes msg = to_bytes("FullIdent message with arbitrary length payload");
  IbeCcaCiphertext ct = ibe_encrypt_cca(d.pub(), "id", msg, rng);
  EXPECT_EQ(ibe_decrypt_cca(ctx(), d.pub(), d.extract("id"), ct), msg);
}

TEST(IbeCca, FoCheckRejectsMauling) {
  Domain d = make_domain("cca-maul");
  cipher::Drbg rng(to_bytes("cca-maul-rng"));
  IbeCcaCiphertext ct = ibe_encrypt_cca(d.pub(), "id", to_bytes("msg"), rng);
  curve::Point priv = d.extract("id");
  {
    IbeCcaCiphertext bad = ct;
    bad.w[0] ^= 1;  // flip one plaintext-mask bit
    EXPECT_THROW(ibe_decrypt_cca(ctx(), d.pub(), priv, bad),
                 cipher::AuthError);
  }
  {
    IbeCcaCiphertext bad = ct;
    bad.v[5] ^= 1;  // corrupt σ-mask
    EXPECT_THROW(ibe_decrypt_cca(ctx(), d.pub(), priv, bad),
                 cipher::AuthError);
  }
  {
    IbeCcaCiphertext bad = ct;
    bad.u = curve::add(ctx(), bad.u, curve::generator(ctx()));
    EXPECT_THROW(ibe_decrypt_cca(ctx(), d.pub(), priv, bad),
                 cipher::AuthError);
  }
}

TEST(IbeCca, WrongIdentityRejected) {
  Domain d = make_domain("cca-wrong");
  cipher::Drbg rng(to_bytes("cca-wrong-rng"));
  IbeCcaCiphertext ct = ibe_encrypt_cca(d.pub(), "id", to_bytes("m"), rng);
  EXPECT_THROW(ibe_decrypt_cca(ctx(), d.pub(), d.extract("other"), ct),
               cipher::AuthError);
}

TEST(IbeCca, SerializationRoundTrip) {
  Domain d = make_domain("cca-ser");
  cipher::Drbg rng(to_bytes("cca-ser-rng"));
  IbeCcaCiphertext ct = ibe_encrypt_cca(d.pub(), "id", to_bytes("m"), rng);
  IbeCcaCiphertext back = IbeCcaCiphertext::from_bytes(ctx(), ct.to_bytes());
  EXPECT_EQ(ibe_decrypt_cca(ctx(), d.pub(), d.extract("id"), back),
            to_bytes("m"));
}

TEST(Ibs, SignVerify) {
  Domain d = make_domain("ibs-sv");
  cipher::Drbg rng(to_bytes("ibs-rng"));
  Bytes msg = to_bytes("authenticate as on-duty caregiver");
  IbsSignature sig = ibs_sign(ctx(), d.extract("dr-alice"), "dr-alice", msg,
                              rng);
  EXPECT_TRUE(ibs_verify(d.pub(), "dr-alice", msg, sig));
}

TEST(Ibs, RejectsWrongMessage) {
  Domain d = make_domain("ibs-msg");
  cipher::Drbg rng(to_bytes("ibs-rng2"));
  IbsSignature sig =
      ibs_sign(ctx(), d.extract("dr-alice"), "dr-alice", to_bytes("m1"), rng);
  EXPECT_FALSE(ibs_verify(d.pub(), "dr-alice", to_bytes("m2"), sig));
}

TEST(Ibs, RejectsWrongIdentity) {
  Domain d = make_domain("ibs-id");
  cipher::Drbg rng(to_bytes("ibs-rng3"));
  Bytes msg = to_bytes("m");
  IbsSignature sig =
      ibs_sign(ctx(), d.extract("dr-alice"), "dr-alice", msg, rng);
  EXPECT_FALSE(ibs_verify(d.pub(), "dr-bob", msg, sig));
}

TEST(Ibs, RejectsKeyFromOtherDomain) {
  Domain d1 = make_domain("ibs-d1");
  Domain d2 = make_domain("ibs-d2");
  cipher::Drbg rng(to_bytes("ibs-rng4"));
  Bytes msg = to_bytes("m");
  IbsSignature sig =
      ibs_sign(ctx(), d2.extract("dr-alice"), "dr-alice", msg, rng);
  EXPECT_FALSE(ibs_verify(d1.pub(), "dr-alice", msg, sig));
}

TEST(Ibs, RejectsMutatedSignature) {
  Domain d = make_domain("ibs-mut");
  cipher::Drbg rng(to_bytes("ibs-rng5"));
  Bytes msg = to_bytes("m");
  IbsSignature sig =
      ibs_sign(ctx(), d.extract("dr-alice"), "dr-alice", msg, rng);
  IbsSignature bad = sig;
  bad.v = mp::add_mod(bad.v, mp::U512::from_u64(1), ctx().q);
  EXPECT_FALSE(ibs_verify(d.pub(), "dr-alice", msg, bad));
  IbsSignature bad2 = sig;
  bad2.w = curve::add(ctx(), bad2.w, curve::generator(ctx()));
  EXPECT_FALSE(ibs_verify(d.pub(), "dr-alice", msg, bad2));
}

TEST(Ibs, SerializationRoundTrip) {
  Domain d = make_domain("ibs-ser");
  cipher::Drbg rng(to_bytes("ibs-rng6"));
  Bytes msg = to_bytes("m");
  IbsSignature sig =
      ibs_sign(ctx(), d.extract("dr-alice"), "dr-alice", msg, rng);
  IbsSignature back = IbsSignature::from_bytes(ctx(), sig.to_bytes());
  EXPECT_TRUE(ibs_verify(d.pub(), "dr-alice", msg, back));
  // One signature, one accepted encoding: trailing bytes are rejected.
  Bytes padded = sig.to_bytes();
  padded.push_back(0x00);
  EXPECT_THROW(IbsSignature::from_bytes(ctx(), padded), std::exception);
}

TEST(Ibs, SignaturesAreRandomized) {
  Domain d = make_domain("ibs-rand");
  cipher::Drbg rng(to_bytes("ibs-rng7"));
  Bytes msg = to_bytes("m");
  IbsSignature s1 =
      ibs_sign(ctx(), d.extract("dr-alice"), "dr-alice", msg, rng);
  IbsSignature s2 =
      ibs_sign(ctx(), d.extract("dr-alice"), "dr-alice", msg, rng);
  EXPECT_NE(s1.to_bytes(), s2.to_bytes());
  EXPECT_TRUE(ibs_verify(d.pub(), "dr-alice", msg, s1));
  EXPECT_TRUE(ibs_verify(d.pub(), "dr-alice", msg, s2));
}

// The fixed-key signer is the one-shot ibs_sign with W from fixed-base
// tables: the same RNG stream gives the same bytes, on both parameter sets.
TEST(IbsSigner, ByteIdenticalToIbsSignAndVerifies) {
  for (curve::ParamSet set :
       {curve::ParamSet::kTest, curve::ParamSet::kProduction}) {
    const curve::CurveCtx& c = curve::params(set);
    cipher::Drbg dom_rng(to_bytes("ibs-signer-dom"));
    Domain d(c, dom_rng);
    const curve::Point gamma = d.extract("dr-alice");
    const IbsSigner signer(c, gamma, "dr-alice");
    cipher::Drbg rng_a(to_bytes("ibs-signer-rng"));
    cipher::Drbg rng_b(to_bytes("ibs-signer-rng"));
    std::vector<IbsBatchItem> items;
    for (int i = 0; i < 6; ++i) {
      Bytes msg = to_bytes("signed message " + std::to_string(i));
      IbsSignature fixed = signer.sign(msg, rng_a);
      IbsSignature one_shot = ibs_sign(c, gamma, "dr-alice", msg, rng_b);
      EXPECT_EQ(fixed.to_bytes(), one_shot.to_bytes()) << c.name << " " << i;
      EXPECT_TRUE(ibs_verify(d.pub(), "dr-alice", msg, fixed)) << c.name;
      items.push_back({"dr-alice", msg, fixed});
    }
    EXPECT_EQ(ibs_verify_batch(d.pub(), items, nullptr),
              std::vector<uint8_t>(items.size(), 1))
        << c.name;
  }
}

// A signature costs one fixed pairing and one point multiplication, with no
// table build: two inversions, W's Jacobian→affine conversion and the final
// exponentiation's.
TEST(IbsSigner, OnePairingOnePointMulPerSignature) {
  Domain d = make_domain("ibs-signer-count");
  const IbsSigner signer(ctx(), d.extract("dr-alice"), "dr-alice");
  cipher::Drbg rng(to_bytes("ibs-signer-count-rng"));
  (void)signer.sign(to_bytes("warm"), rng);  // generator Miller lines
  obs::Registry reg;
  obs::Registry* previous = obs::attached();
  obs::attach(&reg);
  (void)signer.sign(to_bytes("m"), rng);
  obs::attach(previous);
  EXPECT_EQ(reg.counter(obs::kPairingFixed), 1u);
  EXPECT_EQ(reg.counter(obs::kPointMul), 1u);
  EXPECT_EQ(reg.counter(obs::kFieldInv), 2u);
}

// sign() is const: four threads share one signer, each with its own RNG,
// and every signature still matches the one-shot path and verifies.
TEST(IbsSigner, ConcurrentSignersShareOneContext) {
  Domain d = make_domain("ibs-signer-mt");
  const curve::Point gamma = d.extract("dr-alice");
  const IbsSigner signer(ctx(), gamma, "dr-alice");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::vector<std::vector<IbsSignature>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      cipher::Drbg rng(to_bytes("ibs-signer-mt-" + std::to_string(t)));
      for (int i = 0; i < kPerThread; ++i) {
        got[t].push_back(signer.sign(to_bytes("m" + std::to_string(i)), rng));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    cipher::Drbg rng(to_bytes("ibs-signer-mt-" + std::to_string(t)));
    for (int i = 0; i < kPerThread; ++i) {
      Bytes msg = to_bytes("m" + std::to_string(i));
      EXPECT_EQ(got[t][i].to_bytes(),
                ibs_sign(ctx(), gamma, "dr-alice", msg, rng).to_bytes());
      EXPECT_TRUE(ibs_verify(d.pub(), "dr-alice", msg, got[t][i]));
    }
  }
}

TEST(IbsBatch, MatchesSerialVerifyWithRepeatsAndSingletons) {
  Domain d = make_domain("ibs-batch");
  cipher::Drbg rng(to_bytes("ibs-batch-rng"));
  // Two signatures from dr-alice (a repeated identity) and one each from
  // dr-bob and dr-carol.
  std::vector<IbsBatchItem> items;
  for (const char* id : {"dr-alice", "dr-bob", "dr-alice", "dr-carol"}) {
    Bytes msg = to_bytes(std::string("msg-for-") + id);
    items.push_back(
        {id, msg, ibs_sign(ctx(), d.extract(id), id, msg, rng)});
  }
  par::ThreadPool pool(4, "ibs");
  std::vector<uint8_t> pooled = ibs_verify_batch(d.pub(), items, &pool);
  std::vector<uint8_t> serial = ibs_verify_batch(d.pub(), items, nullptr);
  ASSERT_EQ(pooled.size(), items.size());
  EXPECT_EQ(pooled, serial);
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(pooled[i] != 0,
              ibs_verify(d.pub(), items[i].id, items[i].message,
                         items[i].sig))
        << "item " << i;
    EXPECT_TRUE(pooled[i]) << "item " << i;
  }
}

TEST(IbsBatch, FlagsExactlyTheBadSignatures) {
  Domain d = make_domain("ibs-batch-bad");
  cipher::Drbg rng(to_bytes("ibs-batch-bad-rng"));
  std::vector<IbsBatchItem> items;
  for (int i = 0; i < 11; ++i) {
    std::string id = i % 2 == 0 ? "dr-alice" : "dr-bob";
    Bytes msg = to_bytes("m" + std::to_string(i));
    items.push_back(
        {id, msg, ibs_sign(ctx(), d.extract(id), id, msg, rng)});
  }
  // v + 1 and a small v are both forged challenges.
  items[2].sig.v = mp::add_mod(items[2].sig.v, mp::U512::from_u64(1), ctx().q);
  items[5].message = to_bytes("different message");  // tampered message
  items[6].sig.v = mp::U512::from_u64(7);
  items[7].sig.w = curve::Point{};                    // infinity W
  items[8].sig.v = mp::U512{};                        // zero challenge
  items[9].id = "dr-imposter";  // valid signature, wrong identity
  items[10].sig.v = ctx().q;    // challenge out of range
  obs::Registry reg;
  obs::Registry* previous = obs::attached();
  obs::attach(&reg);
  par::ThreadPool pool(2, "ibs");
  std::vector<uint8_t> ok = ibs_verify_batch(d.pub(), items, &pool);
  obs::attach(previous);
  std::vector<uint8_t> want = {1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(ok, want);
  EXPECT_EQ(ibs_verify_batch(d.pub(), items, nullptr), want);
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(ok[i] != 0, ibs_verify(d.pub(), items[i].id, items[i].message,
                                     items[i].sig))
        << "item " << i;
  }
  // Two fused pairings per well-formed signature; items 7, 8 and 10 are
  // rejected without any pairing work.
  EXPECT_EQ(reg.counter(obs::kPairingFixed), 2u * (items.size() - 3));
}

TEST(IbsBatch, EmptyBatchIsEmpty) {
  Domain d = make_domain("ibs-batch-empty");
  EXPECT_TRUE(ibs_verify_batch(d.pub(), {}, nullptr).empty());
}

}  // namespace
}  // namespace hcpp::ibc
