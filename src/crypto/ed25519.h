#ifndef MASSBFT_CRYPTO_ED25519_H_
#define MASSBFT_CRYPTO_ED25519_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace massbft {

/// Portable, dependency-free ed25519 (RFC 8032), validated against the RFC
/// §7.1 test vectors in tests/crypto_test.cc. Field arithmetic uses five
/// 51-bit limbs over unsigned __int128; point arithmetic uses
/// twisted-Edwards projective and extended coordinates (DESIGN.md §17).
///
/// Timing: DerivePublicKey and Sign touch the secret only through a
/// fixed-base comb whose table entries are selected by a full masked scan
/// and whose additions do not depend on digit values, so neither memory
/// access nor control flow depends on the secret scalar or the nonce.
/// Verification is variable-time (signed sliding windows) — every input to
/// Verify is public (signatures on consensus messages).
///
/// Strictness (anti-malleability, both per RFC 8032 MUSTs):
///   * the scalar half `s` of a signature is rejected unless s < L;
///   * point encodings with a non-canonical y coordinate (y >= p) are
///     rejected, as is the "-0" encoding (x = 0 with the sign bit set).
namespace ed25519 {

/// 32-byte secret seed (RFC 8032 "private key").
using SecretKey = std::array<uint8_t, 32>;
/// 32-byte compressed public point A.
using PublicKey = std::array<uint8_t, 32>;
/// 64-byte signature: compressed R followed by little-endian s.
using Sig = std::array<uint8_t, 64>;

class PreparedKey;

/// Decompresses `public_key` and builds its verification tables; nullopt
/// for an encoding that is not a curve point under the strictness rules
/// above.
[[nodiscard]] std::optional<PreparedKey> PrepareKey(
    const PublicKey& public_key);

/// A key's verification tables: affine odd multiples of -A and of
/// -2^128 A (DESIGN.md §17). Defined in ed25519.cc.
struct KeyTables;

/// A public key prepared once, for repeated verification: the square root
/// of decompression and the tables every check of this signer reads are
/// paid by PrepareKey instead of by every check. PrepareKey is the only way
/// to obtain one, so every PreparedKey holds tables of a curve point that
/// passed the strictness checks. Immutable; copies share the tables, and
/// concurrent verifiers may share them.
class PreparedKey {
 public:
  const PublicKey& encoded() const { return encoded_; }
  [[nodiscard]] const KeyTables& tables() const { return *tables_; }

 private:
  friend std::optional<PreparedKey> PrepareKey(const PublicKey& public_key);
  PreparedKey(const PublicKey& encoded,
              std::shared_ptr<const KeyTables> tables)
      : encoded_(encoded), tables_(std::move(tables)) {}

  PublicKey encoded_;
  std::shared_ptr<const KeyTables> tables_;
};

/// Derives the public key for a secret seed (RFC 8032 §5.1.5).
[[nodiscard]] PublicKey DerivePublicKey(const SecretKey& secret);

/// Signs `len` bytes at `data` (RFC 8032 §5.1.6, deterministic nonce).
[[nodiscard]] Sig Sign(const SecretKey& secret, const PublicKey& public_key,
                       const uint8_t* data, size_t len);

/// Verifies one signature (RFC 8032 §5.1.7, cofactorless group equation
/// [s]B == R + [h]A with strict range checks on s and the point
/// encodings).
[[nodiscard]] bool Verify(const PreparedKey& key, const uint8_t* data,
                          size_t len, const Sig& sig);

/// Same verdict from a compressed key: PrepareKey, then Verify.
[[nodiscard]] bool Verify(const PublicKey& public_key, const uint8_t* data,
                          size_t len, const Sig& sig);

/// One (public key, signature) pair of a batch.
struct BatchItem {
  const PreparedKey* key = nullptr;
  const Sig* sig = nullptr;
};

/// Batch verification of n signatures over ONE message — the certificate
/// shape: 2f+1 group members all sign the same entry digest. Checks the
/// random-linear-combination equation
///
///     [sum_i z_i s_i] B  -  sum_i [z_i] R_i  -  sum_i [z_i h_i] A_i  ==  O
///
/// with one interleaved multi-scalar multiplication, sharing one chain of
/// ~128 doublings across all terms (the speedup over n scalar Verify
/// calls; see DESIGN.md §17). The 128-bit coefficients z_i are derived by
/// hashing the batch contents — deterministic by design (rule D1: no
/// ambient randomness in src/), which is sound against forgers who cannot
/// predict a future batch's composition; an adversary who fully controls
/// the batch contents could in principle engineer cancellation, so a
/// `false` verdict is authoritative but callers treat `true` as "no forger
/// present" only for inputs that already bind honest context (certificate
/// digests do).
///
/// Returns true iff the combined equation holds. On false the caller
/// falls back to per-signature Verify to name the forger. Empty batches
/// verify trivially; a single-item batch degrades to Verify.
[[nodiscard]] bool VerifyBatch(const std::vector<BatchItem>& items,
                               const uint8_t* data, size_t len);

}  // namespace ed25519
}  // namespace massbft

#endif  // MASSBFT_CRYPTO_ED25519_H_
