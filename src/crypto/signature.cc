#include "crypto/signature.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "crypto/ed25519.h"
#include "crypto/hmac.h"

namespace massbft {

const char* CryptoSchemeName(CryptoScheme scheme) {
  switch (scheme) {
    case CryptoScheme::kSimulatedHmac:
      return "hmac-sim";
    case CryptoScheme::kEd25519:
      return "ed25519";
  }
  return "unknown";
}

bool SignatureScheme::VerifyBatch(const std::vector<const KeyPair*>& keys,
                                  const uint8_t* data, size_t len,
                                  const std::vector<const Signature*>& sigs)
    const {
  MASSBFT_CHECK(keys.size() == sigs.size());
  for (size_t i = 0; i < keys.size(); ++i)
    if (!Verify(*keys[i], data, len, *sigs[i])) return false;
  return true;
}

// ------------------------------------------------------------- HMAC sim

KeyPair SimulatedHmacScheme::DeriveKeyPair(NodeId node) const {
  // Matches the original simulated-PKI derivation so pre-scheme fixtures
  // (fuzz corpus, golden results) stay byte-identical.
  uint32_t packed = node.Packed();
  Bytes seed = ToBytes("massbft-node-key:");
  seed.push_back(static_cast<uint8_t>(packed >> 24));
  seed.push_back(static_cast<uint8_t>(packed >> 16));
  seed.push_back(static_cast<uint8_t>(packed >> 8));
  seed.push_back(static_cast<uint8_t>(packed));
  Digest d = Sha256::Hash(seed);
  KeyPair kp;
  kp.secret = Bytes(d.begin(), d.end());
  return kp;  // No public half: HMAC verification is symmetric.
}

Signature SimulatedHmacScheme::Sign(const KeyPair& key, const uint8_t* data,
                                    size_t len) const {
  Digest mac = HmacSha256(key.secret, data, len);
  Signature sig;
  // Fill both halves so the signature has the full 64-byte entropy/shape.
  std::memcpy(sig.data(), mac.data(), 32);
  Digest second = Sha256::Hash(mac.data(), mac.size());
  std::memcpy(sig.data() + 32, second.data(), 32);
  return sig;
}

bool SimulatedHmacScheme::Verify(const KeyPair& key, const uint8_t* data,
                                 size_t len, const Signature& sig) const {
  Signature expected = Sign(key, data, len);
  return std::memcmp(expected.data(), sig.data(), sig.size()) == 0;
}

// -------------------------------------------------------------- ed25519

KeyPair Ed25519Scheme::DeriveKeyPair(NodeId node) const {
  // The 32-byte seed is derived, not sampled: clusters stay reproducible
  // (rule D1) and every process derives the same keys without exchange.
  uint32_t packed = node.Packed();
  Bytes material = ToBytes("massbft-ed25519-seed:");
  material.push_back(static_cast<uint8_t>(packed >> 24));
  material.push_back(static_cast<uint8_t>(packed >> 16));
  material.push_back(static_cast<uint8_t>(packed >> 8));
  material.push_back(static_cast<uint8_t>(packed));
  Digest d = Sha256::Hash(material);

  ed25519::SecretKey secret;
  std::memcpy(secret.data(), d.data(), secret.size());

  KeyPair kp;
  kp.secret = Bytes(secret.begin(), secret.end());
  kp.prepared = ed25519::PrepareKey(ed25519::DerivePublicKey(secret));
  // A derived key is a curve point by construction.
  MASSBFT_CHECK(kp.prepared.has_value());
  return kp;
}

Signature Ed25519Scheme::Sign(const KeyPair& key, const uint8_t* data,
                              size_t len) const {
  MASSBFT_CHECK(key.secret.size() == 32 && key.prepared.has_value());
  ed25519::SecretKey secret;
  std::memcpy(secret.data(), key.secret.data(), secret.size());
  return ed25519::Sign(secret, key.prepared->encoded(), data, len);
}

bool Ed25519Scheme::Verify(const KeyPair& key, const uint8_t* data, size_t len,
                           const Signature& sig) const {
  if (!key.prepared) return false;
  return ed25519::Verify(*key.prepared, data, len, sig);
}

bool Ed25519Scheme::VerifyBatch(const std::vector<const KeyPair*>& keys,
                                const uint8_t* data, size_t len,
                                const std::vector<const Signature*>& sigs)
    const {
  MASSBFT_CHECK(keys.size() == sigs.size());
  std::vector<ed25519::BatchItem> items(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!keys[i]->prepared) return false;
    // Signature IS ed25519::Sig (64 bytes).
    items[i] = {&*keys[i]->prepared, sigs[i]};
  }
  return ed25519::VerifyBatch(items, data, len);
}

// ----------------------------------------------------------- KeyRegistry

namespace {

std::unique_ptr<SignatureScheme> MakeScheme(CryptoScheme scheme) {
  switch (scheme) {
    case CryptoScheme::kSimulatedHmac:
      return std::make_unique<SimulatedHmacScheme>();
    case CryptoScheme::kEd25519:
      return std::make_unique<Ed25519Scheme>();
  }
  MASSBFT_CHECK(false);
  return nullptr;
}

}  // namespace

KeyRegistry::KeyRegistry(CryptoScheme scheme)
    : scheme_id_(scheme), scheme_(MakeScheme(scheme)) {}

std::vector<NodeId> KeyRegistry::RegisteredNodes() const {
  std::vector<NodeId> nodes;
  MutexLock lock(&keys_mu_);
  nodes.reserve(keys_.size());
  // Hash-order walk is safe: sorted below before becoming observable.
  for (const auto& [packed, key] : keys_)
    nodes.push_back(NodeId::FromPacked(packed));
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

size_t KeyRegistry::num_nodes() const {
  MutexLock lock(&keys_mu_);
  return keys_.size();
}

void KeyRegistry::RegisterNode(NodeId node) {
  uint32_t packed = node.Packed();
  {
    MutexLock lock(&keys_mu_);
    if (keys_.contains(packed)) return;
  }
  // Derivation (for ed25519: a base-point scalar multiplication, the key's
  // one decompression and its tables) runs outside the lock; a benign
  // double-derive races to the same value.
  KeyPair kp = scheme_->DeriveKeyPair(node);
  MutexLock lock(&keys_mu_);
  keys_.try_emplace(packed, std::move(kp));
}

const KeyPair* KeyRegistry::FindKey(NodeId node) const {
  MutexLock lock(&keys_mu_);
  auto it = keys_.find(node.Packed());
  // Element addresses are stable under unordered_map insertion and nodes
  // are never erased, so escaping the pointer past the lock is sound.
  return it == keys_.end() ? nullptr : &it->second;
}

Signature KeyRegistry::Sign(NodeId node, const uint8_t* data,
                            size_t len) const {
  const KeyPair* key = FindKey(node);
  MASSBFT_CHECK(key != nullptr);
  return scheme_->Sign(*key, data, len);
}

bool KeyRegistry::Verify(NodeId node, const uint8_t* data, size_t len,
                         const Signature& sig) const {
  const KeyPair* key = FindKey(node);
  if (key == nullptr) return false;
  scalar_verifies_.fetch_add(1, std::memory_order_relaxed);
  return scheme_->Verify(*key, data, len, sig);
}

bool KeyRegistry::VerifyBatch(const std::vector<NodeId>& nodes,
                              const uint8_t* data, size_t len,
                              const std::vector<const Signature*>& sigs)
    const {
  MASSBFT_CHECK(nodes.size() == sigs.size());
  std::vector<const KeyPair*> keys(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    keys[i] = FindKey(nodes[i]);
    if (keys[i] == nullptr) return false;
  }
  if (nodes.size() < 2) {
    // Nothing to amortize; count it as the scalar work it is.
    scalar_verifies_.fetch_add(nodes.size(), std::memory_order_relaxed);
    return nodes.empty() || scheme_->Verify(*keys[0], data, len, *sigs[0]);
  }
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  batch_signatures_.fetch_add(nodes.size(), std::memory_order_relaxed);
  if (scheme_->VerifyBatch(keys, data, len, sigs)) return true;
  batch_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

VerifyStats KeyRegistry::verify_stats() const {
  VerifyStats s;
  s.scalar_verifies = scalar_verifies_.load(std::memory_order_relaxed);
  s.batch_signatures = batch_signatures_.load(std::memory_order_relaxed);
  s.batch_calls = batch_calls_.load(std::memory_order_relaxed);
  s.batch_fallbacks = batch_fallbacks_.load(std::memory_order_relaxed);
  return s;
}

double KeyRegistry::verify_batch_ratio() const {
  VerifyStats s = verify_stats();
  uint64_t total = s.scalar_verifies + s.batch_signatures;
  if (total == 0) return 0;
  return static_cast<double>(s.batch_signatures) / static_cast<double>(total);
}

}  // namespace massbft
