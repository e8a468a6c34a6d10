#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/bytes.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "crypto/signature.h"

namespace massbft {
namespace {

// ---------------------------------------------------------------- SHA-256
// NIST FIPS 180-4 known-answer vectors.

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      DigestToHex(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestToHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalEqualsOneShot) {
  std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "SHA-256 block boundaries in interesting ways. 0123456789";
  Digest one_shot = Sha256::Hash(msg);
  // Feed in irregular pieces.
  for (size_t piece : {1u, 3u, 7u, 13u, 31u, 64u, 65u}) {
    Sha256 h;
    for (size_t i = 0; i < msg.size(); i += piece)
      h.Update(std::string_view(msg).substr(i, piece));
    EXPECT_EQ(h.Finish(), one_shot) << "piece size " << piece;
  }
}

TEST(Sha256Test, ExactBlockBoundaries) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Digest incremental = [&] {
      Sha256 h;
      for (char c : msg) h.Update(std::string_view(&c, 1));
      return h.Finish();
    }();
    EXPECT_EQ(Sha256::Hash(msg), incremental) << "len " << len;
  }
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update("garbage");
  (void)h.Finish();
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(DigestToHex(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// --------------------------------------------- Compression-kernel parity

TEST(Sha256Test, ForcedScalarReproducesKnownAnswers) {
  // The NIST vectors above run under whatever implementation the
  // dispatcher picked; re-check them with the portable compression
  // function pinned (the MASSBFT_SIMD=scalar fallback contract).
  Sha256::ForceImplForTest(Sha256::Impl::kScalar);
  EXPECT_EQ(Sha256::ActiveImpl(), Sha256::Impl::kScalar);
  EXPECT_EQ(DigestToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      DigestToHex(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  Sha256::RestoreImplDispatch();
}

TEST(Sha256Test, ShaNiMatchesScalarOnKnownAnswersAndRandomInputs) {
#if defined(__x86_64__) || defined(__i386__)
  if (!GetCpuFeatures().sha_ni) GTEST_SKIP() << "CPU lacks SHA-NI";
  // Drive both kernels directly through the block interface: random
  // multi-block inputs (1..9 blocks) from random starting states must
  // produce bit-identical chaining values.
  Rng rng(0x54A);
  for (int round = 0; round < 50; ++round) {
    size_t n_blocks = 1 + rng.NextBelow(9);
    Bytes blocks(64 * n_blocks);
    for (auto& b : blocks) b = static_cast<uint8_t>(rng.NextBelow(256));
    uint32_t scalar_state[8], shani_state[8];
    for (int i = 0; i < 8; ++i) {
      scalar_state[i] = static_cast<uint32_t>(rng.NextBelow(1ull << 32));
      shani_state[i] = scalar_state[i];
    }
    internal_sha256::ProcessBlocksScalar(scalar_state, blocks.data(),
                                         n_blocks);
    internal_sha256::ProcessBlocksShaNi(shani_state, blocks.data(), n_blocks);
    for (int i = 0; i < 8; ++i)
      ASSERT_EQ(shani_state[i], scalar_state[i])
          << "word " << i << " round " << round;
  }
  // And end to end: one-shot digests of random lengths agree between the
  // pinned implementations (padding/buffering paths included).
  for (size_t len : {0u, 1u, 55u, 56u, 64u, 65u, 127u, 128u, 1000u, 4096u}) {
    Bytes data(len);
    for (auto& b : data) b = static_cast<uint8_t>(rng.NextBelow(256));
    Sha256::ForceImplForTest(Sha256::Impl::kScalar);
    Digest scalar = Sha256::Hash(data);
    Sha256::ForceImplForTest(Sha256::Impl::kShaNi);
    Digest shani = Sha256::Hash(data);
    Sha256::RestoreImplDispatch();
    EXPECT_EQ(scalar, shani) << "len " << len;
  }
#else
  GTEST_SKIP() << "non-x86 build";
#endif
}

// ---------------------------------------------------------------- HMAC
// RFC 4231 test vectors.

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Digest mac = HmacSha256(key, ToBytes("Hi There"));
  EXPECT_EQ(DigestToHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  Bytes key = ToBytes("Jefe");
  Digest mac = HmacSha256(key, ToBytes("what do ya want for nothing?"));
  EXPECT_EQ(DigestToHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  Digest mac = HmacSha256(key, data);
  EXPECT_EQ(DigestToHex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  Bytes key(131, 0xaa);  // RFC 4231 case 6.
  Digest mac = HmacSha256(
      key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(DigestToHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ---------------------------------------------------------------- Signatures

TEST(SignatureTest, SignVerifyRoundTrip) {
  KeyRegistry registry;
  NodeId node{1, 3};
  registry.RegisterNode(node);
  Bytes msg = ToBytes("entry digest payload");
  Signature sig = registry.Sign(node, msg);
  EXPECT_TRUE(registry.Verify(node, msg, sig));
}

TEST(SignatureTest, TamperedMessageFails) {
  KeyRegistry registry;
  NodeId node{0, 0};
  registry.RegisterNode(node);
  Bytes msg = ToBytes("original");
  Signature sig = registry.Sign(node, msg);
  Bytes tampered = ToBytes("originaX");
  EXPECT_FALSE(registry.Verify(node, tampered, sig));
}

TEST(SignatureTest, WrongSignerFails) {
  KeyRegistry registry;
  NodeId a{0, 1}, b{0, 2};
  registry.RegisterNode(a);
  registry.RegisterNode(b);
  Bytes msg = ToBytes("payload");
  Signature sig = registry.Sign(a, msg);
  EXPECT_FALSE(registry.Verify(b, msg, sig));
}

TEST(SignatureTest, UnregisteredVerifierFails) {
  KeyRegistry registry;
  NodeId a{0, 1};
  registry.RegisterNode(a);
  Signature sig = registry.Sign(a, ToBytes("m"));
  EXPECT_FALSE(registry.Verify(NodeId{5, 5}, ToBytes("m"), sig));
}

TEST(SignatureTest, RegistrationIsIdempotentAndDeterministic) {
  KeyRegistry r1, r2;
  NodeId node{2, 4};
  r1.RegisterNode(node);
  r1.RegisterNode(node);
  r2.RegisterNode(node);
  EXPECT_EQ(r1.num_nodes(), 1u);
  // Two registries derive the same key (reproducible clusters).
  Bytes msg = ToBytes("cross-registry");
  EXPECT_EQ(r1.Sign(node, msg), r2.Sign(node, msg));
}

TEST(SignatureTest, SignatureIs64Bytes) {
  // Wire-size fidelity with ED25519.
  EXPECT_EQ(sizeof(Signature), 64u);
}

TEST(NodeIdTest, PackUnpackRoundTrip) {
  NodeId id{513, 42};
  EXPECT_EQ(NodeId::FromPacked(id.Packed()), id);
  EXPECT_LT(NodeId({0, 5}), NodeId({1, 0}));
}

// ---------------------------------------------------------------- SHA-512
// NIST FIPS 180-4 known-answer vectors.

std::string Hex512(const Digest512& d) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(128);
  for (uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

TEST(Sha512Test, EmptyString) {
  EXPECT_EQ(Hex512(Sha512::Hash("")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, Abc) {
  EXPECT_EQ(Hex512(Sha512::Hash("abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, TwoBlockMessage) {
  EXPECT_EQ(Hex512(Sha512::Hash(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512Test, MillionAIncremental) {
  // Exercises block buffering across many Update() calls.
  Sha512 h;
  std::string chunk(999, 'a');  // Prime length: never block-aligned.
  for (int i = 0; i < 1001; ++i) h.Update(chunk);
  h.Update(std::string(1, 'a'));  // 999 * 1001 + 1 = 1,000,000.
  EXPECT_EQ(Hex512(h.Finish()),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

// ---------------------------------------------------------------- ed25519
// RFC 8032 §7.1 test vectors: public-key derivation, signing, verifying.

struct Rfc8032Vector {
  const char* secret;
  const char* public_key;
  const char* message;
  const char* sig;
};

constexpr Rfc8032Vector kRfc8032Vectors[] = {
    // TEST 1 (empty message)
    {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    // TEST 2 (one byte)
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    // TEST 3 (two bytes)
    {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
    // TEST SHA(abc): message = SHA-512("abc")
    {"833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
     "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
     "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
     "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
     "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589"
     "09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"},
};

Bytes FromHex(const std::string& hex) {
  Bytes out(hex.size() / 2);
  for (size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<uint8_t>(
        std::stoi(hex.substr(2 * i, 2), nullptr, 16));
  return out;
}

TEST(Ed25519Test, Rfc8032Vectors) {
  for (const Rfc8032Vector& vec : kRfc8032Vectors) {
    Bytes secret_bytes = FromHex(vec.secret);
    Bytes pk_bytes = FromHex(vec.public_key);
    Bytes msg = FromHex(vec.message);
    Bytes sig_bytes = FromHex(vec.sig);

    ed25519::SecretKey secret;
    std::memcpy(secret.data(), secret_bytes.data(), secret.size());
    ed25519::PublicKey pk = ed25519::DerivePublicKey(secret);
    EXPECT_EQ(Bytes(pk.begin(), pk.end()), pk_bytes);

    ed25519::Sig sig = ed25519::Sign(secret, pk, msg.data(), msg.size());
    EXPECT_EQ(Bytes(sig.begin(), sig.end()), sig_bytes);
    EXPECT_TRUE(ed25519::Verify(pk, msg.data(), msg.size(), sig));
  }
}

TEST(Ed25519Test, TamperedInputsFail) {
  ed25519::SecretKey secret{};
  secret[0] = 42;
  ed25519::PublicKey pk = ed25519::DerivePublicKey(secret);
  Bytes msg = ToBytes("payload");
  ed25519::Sig sig = ed25519::Sign(secret, pk, msg.data(), msg.size());
  ASSERT_TRUE(ed25519::Verify(pk, msg.data(), msg.size(), sig));

  for (size_t bit : {size_t{0}, size_t{250}, size_t{260}, size_t{511}}) {
    ed25519::Sig bad = sig;
    bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(ed25519::Verify(pk, msg.data(), msg.size(), bad));
  }
  Bytes other = ToBytes("payloaX");
  EXPECT_FALSE(ed25519::Verify(pk, other.data(), other.size(), sig));
}

TEST(Ed25519Test, MalleableScalarRejected) {
  // RFC 8032 MUST: reject s >= L. Adding the group order to s yields a
  // second encoding of the "same" signature; strict verifiers refuse it.
  ed25519::SecretKey secret{};
  secret[0] = 7;
  ed25519::PublicKey pk = ed25519::DerivePublicKey(secret);
  Bytes msg = ToBytes("malleability");
  ed25519::Sig sig = ed25519::Sign(secret, pk, msg.data(), msg.size());
  ASSERT_TRUE(ed25519::Verify(pk, msg.data(), msg.size(), sig));

  static constexpr uint8_t kL[32] = {
      0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
      0xa2, 0xde, 0xf9, 0xde, 0x14, 0,    0,    0,    0,    0,    0,
      0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {
    unsigned v = sig[32 + i] + kL[i] + carry;
    sig[32 + i] = static_cast<uint8_t>(v);
    carry = v >> 8;
  }
  EXPECT_FALSE(ed25519::Verify(pk, msg.data(), msg.size(), sig));
}

TEST(Ed25519Test, NonCanonicalPointRejected) {
  // A public key whose y coordinate is >= p (here: p + 1, i.e. the
  // encoding of 1 with all the high bytes of p added back) must not parse.
  ed25519::SecretKey secret{};
  secret[0] = 9;
  ed25519::PublicKey pk = ed25519::DerivePublicKey(secret);
  Bytes msg = ToBytes("canonical");
  ed25519::Sig sig = ed25519::Sign(secret, pk, msg.data(), msg.size());

  ed25519::PublicKey non_canonical;
  non_canonical.fill(0xFF);
  non_canonical[0] = 0xEE;   // p + 1: 2^255 - 19 + 1, little-endian.
  non_canonical[31] = 0x7F;  // Sign bit clear.
  EXPECT_FALSE(
      ed25519::Verify(non_canonical, msg.data(), msg.size(), sig));
}

TEST(Ed25519Test, BatchVerifiesAndPinpointsForgery) {
  Bytes digest = ToBytes("one shared certificate digest............");
  constexpr int kN = 7;
  std::vector<ed25519::PublicKey> pks(kN);
  std::vector<ed25519::PreparedKey> keys;
  std::vector<ed25519::Sig> sigs(kN);
  for (int i = 0; i < kN; ++i) {
    ed25519::SecretKey secret{};
    secret[0] = static_cast<uint8_t>(i + 1);
    pks[i] = ed25519::DerivePublicKey(secret);
    keys.push_back(ed25519::PrepareKey(pks[i]).value());
    sigs[i] = ed25519::Sign(secret, pks[i], digest.data(), digest.size());
  }
  std::vector<ed25519::BatchItem> items;
  for (int i = 0; i < kN; ++i) items.push_back({&keys[i], &sigs[i]});
  EXPECT_TRUE(ed25519::VerifyBatch(items, digest.data(), digest.size()));

  // One forgery poisons the whole batch; scalar Verify pinpoints it.
  sigs[4][17] ^= 0x20;
  EXPECT_FALSE(ed25519::VerifyBatch(items, digest.data(), digest.size()));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(ed25519::Verify(pks[i], digest.data(), digest.size(), sigs[i]),
              i != 4);
  }

  // Empty and single-item batches degrade gracefully.
  EXPECT_TRUE(ed25519::VerifyBatch({}, digest.data(), digest.size()));
  std::vector<ed25519::BatchItem> one = {{&keys[0], &sigs[0]}};
  EXPECT_TRUE(ed25519::VerifyBatch(one, digest.data(), digest.size()));
}

// ------------------------------------------------------- Golden verdicts
// Verdicts recorded once and kept as literals, so a change to the curve
// arithmetic that flips any of them fails here. Each row is checked twice:
// alone through Verify, and as the middle item of a 3-signature
// VerifyBatch whose other two items are valid signatures over the same
// message by the seeds {0xA1, 0, ...} and {0xA2, 0, ...}. The small-order
// and mixed-order rows pin where the cofactorless scalar equation and the
// z_i-weighted batch equation disagree: a torsion component survives or
// vanishes depending on h mod 8 in one and on z_i h_i mod L in the other.

struct GoldenRow {
  const char* public_key;
  const char* message;
  const char* sig;
  bool verify;
  bool in_batch;
};

constexpr GoldenRow kGoldenRows[] = {
    // valid signature
    {"ccbc3da2c4267cc8553be0c7b5790cc75a121297528462c3d2cc679d16eb8684",
     "golden: valid",
     "468a57cdf4b53a37db9d112619d1841ddc88855c9148047626f6a62d078cf552"
     "8b5864c3c38f1d2b6bb4c456f5e15fb738bf01679c388e1ecd5b4ea64f155708",
     true, true},
    // valid signature, empty message
    {"ccbc3da2c4267cc8553be0c7b5790cc75a121297528462c3d2cc679d16eb8684",
     "",
     "3ae33bdacf47fa63437e00ea22ad9a83060a908f11a01cb219422374013bcfb8"
     "ab38a6ab3cfa8899f3ae5590ee8552591757a5875ae455f1f556bf006cd3d402",
     true, true},
    // s = 0 on a real key
    {"ccbc3da2c4267cc8553be0c7b5790cc75a121297528462c3d2cc679d16eb8684",
     "golden: valid",
     "468a57cdf4b53a37db9d112619d1841ddc88855c9148047626f6a62d078cf552"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false, false},
    // s = L - 1 on a real key
    {"ccbc3da2c4267cc8553be0c7b5790cc75a121297528462c3d2cc679d16eb8684",
     "golden: valid",
     "468a57cdf4b53a37db9d112619d1841ddc88855c9148047626f6a62d078cf552"
     "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010",
     false, false},
    // s = L - 1, A = identity, R = -B: the equation holds
    {"0100000000000000000000000000000000000000000000000000000000000000",
     "golden: s=L-1",
     "58666666666666666666666666666666666666666666666666666666666666e6"
     "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010",
     true, true},
    // s = 0, A = R = identity: the equation holds
    {"0100000000000000000000000000000000000000000000000000000000000000",
     "golden: s=0",
     "0100000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000",
     true, true},
    // s = L
    {"ccbc3da2c4267cc8553be0c7b5790cc75a121297528462c3d2cc679d16eb8684",
     "golden: valid",
     "468a57cdf4b53a37db9d112619d1841ddc88855c9148047626f6a62d078cf552"
     "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010",
     false, false},
    // s + L: the valid signature malleated
    {"ccbc3da2c4267cc8553be0c7b5790cc75a121297528462c3d2cc679d16eb8684",
     "golden: valid",
     "468a57cdf4b53a37db9d112619d1841ddc88855c9148047626f6a62d078cf552"
     "782c5a20def22f834151bcf9d3db3ecc38bf01679c388e1ecd5b4ea64f155718",
     false, false},
    // s = 2^256 - 1
    {"ccbc3da2c4267cc8553be0c7b5790cc75a121297528462c3d2cc679d16eb8684",
     "golden: valid",
     "468a57cdf4b53a37db9d112619d1841ddc88855c9148047626f6a62d078cf552"
     "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     false, false},
    // non-canonical y = p + 1 (the identity) as A
    {"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "golden: s=0",
     "0100000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false, false},
    // non-canonical y = p + 1 (the identity) as R
    {"0100000000000000000000000000000000000000000000000000000000000000",
     "golden: s=0",
     "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false, false},
    // non-canonical y = p as A
    {"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "golden: s=0",
     "0100000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false, false},
    // non-canonical y = p as R
    {"ccbc3da2c4267cc8553be0c7b5790cc75a121297528462c3d2cc679d16eb8684",
     "golden: valid",
     "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"
     "8b5864c3c38f1d2b6bb4c456f5e15fb738bf01679c388e1ecd5b4ea64f155708",
     false, false},
    // -0 (identity with the sign bit) as A
    {"0100000000000000000000000000000000000000000000000000000000000080",
     "golden: s=0",
     "0100000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false, false},
    // -0 (identity with the sign bit) as R
    {"0100000000000000000000000000000000000000000000000000000000000000",
     "golden: s=0",
     "0100000000000000000000000000000000000000000000000000000000000080"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false, false},
    // -0 (order-2 point with the sign bit) as A
    {"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "golden: s=0",
     "0100000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false, false},
    // -0 (order-2 point with the sign bit) as R
    {"0100000000000000000000000000000000000000000000000000000000000000",
     "golden: s=0",
     "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false, false},
    // order-2 A, R = identity, s = 0
    {"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "golden: small A 0",
     "0100000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000",
     true, false},
    // order-2 A, R = order-2, s = 0
    {"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "golden: small A 0",
     "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false, false},
    // order-2 A, R = identity, s = 0
    {"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "golden: small A 1",
     "0100000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000",
     true, false},
    // order-2 A, R = order-2, s = 0
    {"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
     "golden: small A 1",
     "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false, true},
    // order-4 A, R = identity, s = 0
    {"0000000000000000000000000000000000000000000000000000000000000000",
     "golden: small A 0",
     "0100000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000",
     true, false},
    // order-8 A, R = identity, s = 0
    {"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
     "golden: small A 0",
     "0100000000000000000000000000000000000000000000000000000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false, false},
    // identity A, order-2 R, s = 0
    {"0100000000000000000000000000000000000000000000000000000000000000",
     "golden: small R",
     "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false, true},
    // identity A, order-8 R, s = 0
    {"0100000000000000000000000000000000000000000000000000000000000000",
     "golden: small R",
     "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"
     "0000000000000000000000000000000000000000000000000000000000000000",
     false, false},
    // order-2 R on a real key, s = h a
    {"ccbc3da2c4267cc8553be0c7b5790cc75a121297528462c3d2cc679d16eb8684",
     "golden: small R, real key",
     "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"
     "9b7bacae6541c7cf3540fdee494d4553b3b9e828af3fa68908b2f98269a92802",
     false, false},
    // mixed-order A = [a]B + T8 (T8 of order 8), h != 0 mod 8
    {"8ce37f0555f5535cf7596fac7589744aa5b34555bfac77efa06e158942d911ec",
     "golden: mixed key 0",
     "d089871b50be3618438b8eec3a36b83911cee2034bc461ac05c1088b7a9b60e9"
     "3328367677d49c05313d76027802a7b6f39440d5c9509ad6eec239a6b7020e0b",
     false, true},
    // mixed-order A = [a]B + T8, h != 0 mod 8
    {"8ce37f0555f5535cf7596fac7589744aa5b34555bfac77efa06e158942d911ec",
     "golden: mixed key 1",
     "435b74eee587954a819b53e8ab7f8fc359d745380fc676bcae4ec4a77c06df72"
     "892328ed536a98e0b082fb113f8eeaa54fa8dd81167694893083a7a5b135a40d",
     false, false},
    // mixed-order A = [a]B + T8, h = 0 mod 8
    {"8ce37f0555f5535cf7596fac7589744aa5b34555bfac77efa06e158942d911ec",
     "golden: mixed key 8",
     "b676b135c95eaef30f96bd9ec90ec96c79b147d0518d89a7453237d226953e6e"
     "60f5671b7701b55c79021f1fd76cdf1287520f2fbf9202c581a694f91da21f00",
     true, false},
    // mixed-order R = [r]B + T8, s = r + h a
    {"ccbc3da2c4267cc8553be0c7b5790cc75a121297528462c3d2cc679d16eb8684",
     "golden: mixed R",
     "17df7eb58d040b4e8dd0221b1b708f0ea8d00f3c078b4e787695422eb64b9915"
     "1410a521cdeb745f1dc7b1916b737d03e233f75f8b793eb82d8d00683ac65005",
     false, false},
    // A off the curve: (y^2 - 1) / (d y^2 + 1) is not a square for y = 2
    {"0200000000000000000000000000000000000000000000000000000000000000",
     "golden: valid",
     "468a57cdf4b53a37db9d112619d1841ddc88855c9148047626f6a62d078cf552"
     "8b5864c3c38f1d2b6bb4c456f5e15fb738bf01679c388e1ecd5b4ea64f155708",
     false, false},
    // R off the curve (y = 2)
    {"ccbc3da2c4267cc8553be0c7b5790cc75a121297528462c3d2cc679d16eb8684",
     "golden: valid",
     "0200000000000000000000000000000000000000000000000000000000000000"
     "8b5864c3c38f1d2b6bb4c456f5e15fb738bf01679c388e1ecd5b4ea64f155708",
     false, false},
    // Split-scalar edges: verification splits s and h into 128-bit halves.
    // h is a hash output, so no row can give it a zero half; the identity
    // key makes the equation hold for a chosen s with R = [s]B.
    // s = 2^128 (zero low half), A = identity, R = [s]B
    {"0100000000000000000000000000000000000000000000000000000000000000",
     "golden: split s",
     "6ba6f54b11bdba5b9ec4a4511ebed0903a9cc226b61ef1957dc86d52e6992c5f"
     "0000000000000000000000000000000001000000000000000000000000000000",
     true, true},
    // s = 2^128 - 1 (zero high half; the low digits carry into bit 128)
    {"0100000000000000000000000000000000000000000000000000000000000000",
     "golden: split s",
     "1976d48fb7b8714d07d10b29782a359ed9734d39eae7308c28c4931a626b5676"
     "ffffffffffffffffffffffffffffffff00000000000000000000000000000000",
     true, true},
    // s = 2^252, i.e. L - 1 with a zero low half
    {"0100000000000000000000000000000000000000000000000000000000000000",
     "golden: split s",
     "b8421c03ad2c038eacd7982913c60229b5d4e7cfcc8b83ec35c79c74b7ad855f"
     "0000000000000000000000000000000000000000000000000000000000000010",
     true, true},
    // s = L - 1 with a zero high half
    {"0100000000000000000000000000000000000000000000000000000000000000",
     "golden: split s",
     "cc73613dc224a0c2fcb136cbe694934e953dc024d6055de036478538ba520a4d"
     "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000000",
     true, true},
    // valid R on a real key, s with its low half zeroed
    {"ccbc3da2c4267cc8553be0c7b5790cc75a121297528462c3d2cc679d16eb8684",
     "golden: valid",
     "468a57cdf4b53a37db9d112619d1841ddc88855c9148047626f6a62d078cf552"
     "0000000000000000000000000000000038bf01679c388e1ecd5b4ea64f155708",
     false, false},
    // valid R on a real key, s with its high half zeroed
    {"ccbc3da2c4267cc8553be0c7b5790cc75a121297528462c3d2cc679d16eb8684",
     "golden: valid",
     "468a57cdf4b53a37db9d112619d1841ddc88855c9148047626f6a62d078cf552"
     "8b5864c3c38f1d2b6bb4c456f5e15fb700000000000000000000000000000000",
     false, false},
};

TEST(Ed25519Test, GoldenVerdicts) {
  ed25519::SecretKey seed1{}, seed2{};
  seed1[0] = 0xA1;
  seed2[0] = 0xA2;
  const ed25519::PublicKey pk1 = ed25519::DerivePublicKey(seed1);
  const ed25519::PublicKey pk2 = ed25519::DerivePublicKey(seed2);
  const ed25519::PreparedKey key1 = ed25519::PrepareKey(pk1).value();
  const ed25519::PreparedKey key2 = ed25519::PrepareKey(pk2).value();

  for (const GoldenRow& row : kGoldenRows) {
    SCOPED_TRACE(std::string(row.public_key) + " / " + row.sig);
    ed25519::PublicKey pk;
    ed25519::Sig sig;
    const Bytes pk_bytes = FromHex(row.public_key);
    const Bytes sig_bytes = FromHex(row.sig);
    std::memcpy(pk.data(), pk_bytes.data(), pk.size());
    std::memcpy(sig.data(), sig_bytes.data(), sig.size());
    const Bytes msg = ToBytes(row.message);

    EXPECT_EQ(ed25519::Verify(pk, msg.data(), msg.size(), sig), row.verify);

    // A key that does not decompress cannot join a batch; such batches
    // were recorded as failing.
    const std::optional<ed25519::PreparedKey> key = ed25519::PrepareKey(pk);
    bool in_batch = false;
    if (key) {
      const ed25519::Sig sig1 =
          ed25519::Sign(seed1, pk1, msg.data(), msg.size());
      const ed25519::Sig sig2 =
          ed25519::Sign(seed2, pk2, msg.data(), msg.size());
      const std::vector<ed25519::BatchItem> items = {
          {&key1, &sig1}, {&*key, &sig}, {&key2, &sig2}};
      in_batch = ed25519::VerifyBatch(items, msg.data(), msg.size());
    }
    EXPECT_EQ(in_batch, row.in_batch);
  }
}

TEST(Ed25519Test, OnlyCurvePointsBecomePreparedKeys) {
  // A key that is not a curve point would make checks fail open: all-zero
  // limbs accept any all-zero R. PrepareKey is the only source of
  // PreparedKeys and refuses every encoding that is not a strict point.
  static_assert(!std::is_default_constructible_v<ed25519::PreparedKey>);
  const ed25519::Sig zero_r{};  // R = 32 zero bytes, s = 0 < L.
  const Bytes msg = ToBytes("zero R");
  for (const char* hex :
       {"0200000000000000000000000000000000000000000000000000000000000000",
        "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "0100000000000000000000000000000000000000000000000000000000000080"}) {
    SCOPED_TRACE(hex);
    ed25519::PublicKey pk;
    const Bytes pk_bytes = FromHex(hex);
    std::memcpy(pk.data(), pk_bytes.data(), pk.size());
    EXPECT_FALSE(ed25519::PrepareKey(pk).has_value());
    EXPECT_FALSE(ed25519::Verify(pk, msg.data(), msg.size(), zero_r));
  }

  // A real key rejects the all-zero R alone and inside a batch.
  ed25519::SecretKey secret{};
  secret[0] = 5;
  const ed25519::PublicKey pk = ed25519::DerivePublicKey(secret);
  const ed25519::PreparedKey key = ed25519::PrepareKey(pk).value();
  const ed25519::Sig good = ed25519::Sign(secret, pk, msg.data(), msg.size());
  EXPECT_FALSE(ed25519::Verify(key, msg.data(), msg.size(), zero_r));
  EXPECT_FALSE(ed25519::VerifyBatch({{&key, &good}, {&key, &zero_r}},
                                    msg.data(), msg.size()));
}

TEST(Ed25519Test, RandomizedSweepAgreesWithScalarVerify) {
  // Seeded sweep over random keys and messages: every signature
  // round-trips, single-bit flips of R, s and the key are rejected, and a
  // batch of 2..16 with random forgeries verifies iff every member does.
  Rng rng(0x5EED25519);
  for (int round = 0; round < 40; ++round) {
    Bytes msg(rng.NextBelow(65));
    for (auto& b : msg) b = static_cast<uint8_t>(rng.NextBelow(256));
    const size_t n = 2 + rng.NextBelow(15);
    std::vector<ed25519::PublicKey> pks(n);
    std::vector<ed25519::PreparedKey> keys;
    std::vector<ed25519::Sig> sigs(n);
    for (size_t i = 0; i < n; ++i) {
      ed25519::SecretKey secret;
      for (auto& b : secret) b = static_cast<uint8_t>(rng.NextBelow(256));
      pks[i] = ed25519::DerivePublicKey(secret);
      keys.push_back(ed25519::PrepareKey(pks[i]).value());
      sigs[i] = ed25519::Sign(secret, pks[i], msg.data(), msg.size());
      ASSERT_TRUE(ed25519::Verify(keys[i], msg.data(), msg.size(), sigs[i]));

      const size_t r_bit = rng.NextBelow(256), s_bit = 256 + rng.NextBelow(256);
      for (size_t bit : {r_bit, s_bit}) {
        ed25519::Sig bad = sigs[i];
        bad[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(ed25519::Verify(keys[i], msg.data(), msg.size(), bad))
            << "round " << round << " bit " << bit;
      }
      ed25519::PublicKey bad_pk = pks[i];
      const size_t pk_bit = rng.NextBelow(256);
      bad_pk[pk_bit / 8] ^= static_cast<uint8_t>(1u << (pk_bit % 8));
      EXPECT_FALSE(ed25519::Verify(bad_pk, msg.data(), msg.size(), sigs[i]))
          << "round " << round << " key bit " << pk_bit;
    }

    bool all_valid = true;
    std::vector<ed25519::BatchItem> items(n);
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBelow(4) == 0) {
        const size_t bit = rng.NextBelow(512);
        sigs[i][bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      }
      all_valid =
          ed25519::Verify(keys[i], msg.data(), msg.size(), sigs[i]) &&
          all_valid;
      items[i] = {&keys[i], &sigs[i]};
    }
    EXPECT_EQ(ed25519::VerifyBatch(items, msg.data(), msg.size()), all_valid)
        << "round " << round << " n " << n;
  }
}

// ----------------------------------------------------- SignatureScheme seam

TEST(SignatureSchemeTest, Ed25519RegistryRoundTrip) {
  KeyRegistry registry(CryptoScheme::kEd25519);
  EXPECT_STREQ(registry.scheme_name(), "ed25519");
  NodeId node{1, 3};
  registry.RegisterNode(node);
  Bytes msg = ToBytes("entry digest payload");
  Signature sig = registry.Sign(node, msg);
  EXPECT_TRUE(registry.Verify(node, msg, sig));
  Bytes tampered = ToBytes("entry digest payloaX");
  EXPECT_FALSE(registry.Verify(node, tampered, sig));
  EXPECT_FALSE(registry.Verify(NodeId{1, 4}, msg, sig));  // Unregistered.
}

TEST(SignatureSchemeTest, SchemesProduceDistinctSignatures) {
  KeyRegistry hmac(CryptoScheme::kSimulatedHmac);
  KeyRegistry ed(CryptoScheme::kEd25519);
  NodeId node{0, 0};
  hmac.RegisterNode(node);
  ed.RegisterNode(node);
  Bytes msg = ToBytes("same payload");
  EXPECT_NE(hmac.Sign(node, msg), ed.Sign(node, msg));
  // Cross-scheme verification must fail, not crash.
  EXPECT_FALSE(hmac.Verify(node, msg, ed.Sign(node, msg)));
  EXPECT_FALSE(ed.Verify(node, msg, hmac.Sign(node, msg)));
}

TEST(SignatureSchemeTest, RegistryBatchVerifyCountsStats) {
  KeyRegistry registry(CryptoScheme::kEd25519);
  Bytes digest = ToBytes("certificate digest 32 bytes long");
  std::vector<NodeId> nodes;
  std::vector<Signature> sigs;
  for (uint16_t i = 0; i < 5; ++i) {
    NodeId node{2, i};
    registry.RegisterNode(node);
    nodes.push_back(node);
    sigs.push_back(registry.Sign(node, digest));
  }
  std::vector<const Signature*> sig_ptrs;
  for (const Signature& s : sigs) sig_ptrs.push_back(&s);
  EXPECT_TRUE(
      registry.VerifyBatch(nodes, digest.data(), digest.size(), sig_ptrs));
  VerifyStats stats = registry.verify_stats();
  EXPECT_EQ(stats.batch_calls, 1u);
  EXPECT_EQ(stats.batch_signatures, 5u);
  EXPECT_EQ(stats.batch_fallbacks, 0u);
  EXPECT_GT(registry.verify_batch_ratio(), 0.99);

  // A forged member fails the batch and records the fallback.
  sigs[1][0] ^= 1;
  EXPECT_FALSE(
      registry.VerifyBatch(nodes, digest.data(), digest.size(), sig_ptrs));
  stats = registry.verify_stats();
  EXPECT_EQ(stats.batch_fallbacks, 1u);
}

TEST(SignatureSchemeTest, HmacBatchLoopsScalar) {
  KeyRegistry registry(CryptoScheme::kSimulatedHmac);
  Bytes digest = ToBytes("hmac digest");
  std::vector<NodeId> nodes;
  std::vector<Signature> sigs;
  for (uint16_t i = 0; i < 3; ++i) {
    NodeId node{0, i};
    registry.RegisterNode(node);
    nodes.push_back(node);
    sigs.push_back(registry.Sign(node, digest));
  }
  std::vector<const Signature*> sig_ptrs;
  for (const Signature& s : sigs) sig_ptrs.push_back(&s);
  EXPECT_TRUE(
      registry.VerifyBatch(nodes, digest.data(), digest.size(), sig_ptrs));
  sigs[2][5] ^= 4;
  EXPECT_FALSE(
      registry.VerifyBatch(nodes, digest.data(), digest.size(), sig_ptrs));
}

TEST(SignatureSchemeTest, Ed25519DerivationIsDeterministic) {
  KeyRegistry r1(CryptoScheme::kEd25519), r2(CryptoScheme::kEd25519);
  NodeId node{3, 1};
  r1.RegisterNode(node);
  r2.RegisterNode(node);
  Bytes msg = ToBytes("cross-registry");
  // ed25519 signing is deterministic (RFC 8032), so identical derived
  // keys produce identical signatures.
  EXPECT_EQ(r1.Sign(node, msg), r2.Sign(node, msg));
}

TEST(SignatureSchemeTest, ConcurrentSignAndVerifyFromFourThreads) {
  // Node threads share one registry: each registers a node of its own
  // while the others sign, verify and batch-verify through the shared
  // prepared keys of group 0.
  KeyRegistry registry(CryptoScheme::kEd25519);
  constexpr uint16_t kThreads = 4;
  std::vector<NodeId> group;
  for (uint16_t i = 0; i < kThreads; ++i) {
    group.push_back(NodeId{0, i});
    registry.RegisterNode(group.back());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (uint16_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &group, &failures, t] {
      registry.RegisterNode(NodeId{1, t});
      for (int round = 0; round < 8; ++round) {
        const Bytes msg = ToBytes("thread " + std::to_string(t) + " round " +
                                  std::to_string(round));
        std::vector<Signature> sigs;
        for (NodeId node : group) sigs.push_back(registry.Sign(node, msg));
        std::vector<const Signature*> sig_ptrs;
        for (const Signature& s : sigs) sig_ptrs.push_back(&s);
        if (!registry.Verify(group[t], msg, sigs[t])) failures++;
        if (registry.Verify(group[(t + 1) % kThreads], msg, sigs[t]))
          failures++;
        if (!registry.VerifyBatch(group, msg.data(), msg.size(), sig_ptrs))
          failures++;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(registry.num_nodes(), 2u * kThreads);
  EXPECT_EQ(registry.verify_stats().batch_fallbacks, 0u);
}

}  // namespace
}  // namespace massbft
