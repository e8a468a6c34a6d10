#include "db/kv_store.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/codec.h"
#include "common/logging.h"

namespace massbft {

namespace {

uint64_t g_hash_seed = 0;

using Blocks = std::vector<std::unique_ptr<uint8_t[]>>;

constexpr uint64_t kEmptySlot = std::numeric_limits<uint64_t>::max();
constexpr size_t kMinSlots = 16;
/// Row references are 32 bits: 16 of block index, 16 of offset.
constexpr int kOffsetBits = 16;
static_assert(KvStore::kBlockBytes == size_t{1} << kOffsetBits);
constexpr size_t kMaxBlocks = size_t{1} << (32 - kOffsetBits);
/// A row longer than this gets a block of its own, so a block that a row
/// does not fit in wastes less than a quarter of itself.
constexpr size_t kOwnBlockRow = KvStore::kBlockBytes / 4;

uint32_t RefOf(uint64_t slot) { return static_cast<uint32_t>(slot); }
uint32_t HashOf(uint64_t slot) { return static_cast<uint32_t>(slot >> 32); }
uint64_t MakeSlot(uint32_t hash, uint32_t ref) {
  return static_cast<uint64_t>(hash) << 32 | ref;
}

uint8_t* WriteVarint(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

/// Reads a varint this store wrote, so it needs no bounds or form checks;
/// returns the bytes it took.
size_t ReadVarint(const uint8_t* p, size_t* v) {
  size_t x = 0;
  size_t n = 0;
  for (int shift = 0;; shift += 7) {
    const uint8_t byte = p[n++];
    x |= static_cast<size_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
  }
  *v = x;
  return n;
}

size_t RowSize(size_t key_size, size_t value_size) {
  return VarintSize(key_size) + VarintSize(value_size) + key_size +
         value_size;
}

/// One stored row: where it starts, its key and value, and its length.
struct Row {
  uint8_t* begin;
  std::string_view key;
  uint8_t* value;
  size_t value_size;
  size_t size;
};

/// Decodes the row a slot refers to.
Row ReadRow(const Blocks& blocks, uint64_t slot) {
  const uint32_t ref = RefOf(slot);
  uint8_t* begin =
      blocks[ref >> kOffsetBits].get() + (ref & (KvStore::kBlockBytes - 1));
  size_t key_size = 0, value_size = 0;
  size_t header = ReadVarint(begin, &key_size);
  header += ReadVarint(begin + header, &value_size);
  uint8_t* key = begin + header;
  return Row{begin, {reinterpret_cast<const char*>(key), key_size},
             key + key_size, value_size, header + key_size + value_size};
}

}  // namespace

void KvStore::SetHashSeedForTest(uint64_t seed) { g_hash_seed = seed; }

uint64_t KvStore::hash_seed() { return g_hash_seed; }

uint32_t KvStore::Hash(std::string_view key) const {
  // SplitMix64's finalizer over the seeded std::hash spreads every input
  // bit into the top 32, which are all the index keeps.
  uint64_t h = std::hash<std::string_view>{}(key) + seed_;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<uint32_t>(h >> 32);
}

size_t KvStore::Probe(std::string_view key, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint64_t slot = slots_[i];
    if (slot == kEmptySlot) return i;
    if (HashOf(slot) == hash && ReadRow(blocks_, slot).key == key) return i;
  }
}

uint32_t KvStore::Allocate(size_t n, uint8_t** out) {
  const bool own_block = n > kOwnBlockRow;
  if (!own_block && fill_used_ + n <= kBlockBytes) {
    const size_t offset = fill_used_;
    fill_used_ += n;
    *out = blocks_[fill_block_].get() + offset;
    return static_cast<uint32_t>(fill_block_ << kOffsetBits | offset);
  }
  // A store past 2^16 blocks (4 GiB of rows) is as fatal as a failed
  // allocation: no reference could name its next row.
  MASSBFT_CHECK(blocks_.size() < kMaxBlocks);
  const size_t size = own_block ? n : kBlockBytes;
  blocks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(size));
  block_bytes_ += size;
  *out = blocks_.back().get();
  const size_t index = blocks_.size() - 1;
  if (!own_block) {
    waste_bytes_ += kBlockBytes - fill_used_;
    fill_block_ = index;
    fill_used_ = n;
  }
  return static_cast<uint32_t>(index << kOffsetBits);
}

void KvStore::Grow() {
  const size_t capacity = slots_.empty() ? kMinSlots : slots_.size() * 2;
  // Placement uses only the 32 stored hash bits.
  MASSBFT_CHECK(capacity <= (size_t{1} << 32));
  std::vector<uint64_t> grown(capacity, kEmptySlot);
  const size_t mask = capacity - 1;
  for (uint64_t slot : slots_) {
    if (slot == kEmptySlot) continue;
    size_t i = HashOf(slot) & mask;
    while (grown[i] != kEmptySlot) i = (i + 1) & mask;
    grown[i] = slot;
  }
  slots_.swap(grown);
}

void KvStore::Compact() {
  Blocks old;
  old.swap(blocks_);
  fill_block_ = 0;
  fill_used_ = kBlockBytes;
  block_bytes_ = 0;
  waste_bytes_ = 0;
  // The walk order decides only which block and offset each row lands at,
  // and no result reads a reference: Get and Put find rows by key.
  for (uint64_t& slot : slots_) {
    if (slot == kEmptySlot) continue;
    const Row row = ReadRow(old, slot);
    uint8_t* to = nullptr;
    slot = MakeSlot(HashOf(slot), Allocate(row.size, &to));
    std::memcpy(to, row.begin, row.size);
  }
}

std::optional<Bytes> KvStore::Get(std::string_view key) const {
  if (!slots_.empty()) {
    const uint64_t slot = slots_[Probe(key, Hash(key))];
    if (slot != kEmptySlot) {
      const Row row = ReadRow(blocks_, slot);
      return Bytes(row.value, row.value + row.value_size);
    }
  }
  if (default_fn_) return default_fn_(key);
  return std::nullopt;
}

void KvStore::Put(std::string key, Bytes value) {
  const uint32_t hash = Hash(key);
  if (slots_.empty()) Grow();
  size_t i = Probe(key, hash);
  if (slots_[i] == kEmptySlot) {
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      Grow();
      i = Probe(key, hash);
    }
    ++size_;
  } else {
    const Row row = ReadRow(blocks_, slots_[i]);
    if (row.value_size == value.size()) {
      if (!value.empty()) std::memcpy(row.value, value.data(), value.size());
      return;
    }
    waste_bytes_ += row.size;
    live_bytes_ -= row.size;
  }
  const size_t n = RowSize(key.size(), value.size());
  live_bytes_ += n;
  uint8_t* p = nullptr;
  slots_[i] = MakeSlot(hash, Allocate(n, &p));
  p = WriteVarint(WriteVarint(p, key.size()), value.size());
  std::memcpy(p, key.data(), key.size());
  if (!value.empty()) std::memcpy(p + key.size(), value.data(), value.size());
  if (waste_bytes_ > live_bytes_) Compact();
}

void KvStore::Reset() {
  std::vector<uint64_t>().swap(slots_);
  Blocks().swap(blocks_);
  fill_block_ = 0;
  fill_used_ = kBlockBytes;
  size_ = 0;
  block_bytes_ = 0;
  live_bytes_ = 0;
  waste_bytes_ = 0;
}

size_t KvStore::bytes() const {
  return slots_.size() * sizeof(uint64_t) + block_bytes_;
}

std::vector<std::pair<std::string, Bytes>> KvStore::Snapshot() const {
  std::vector<std::pair<std::string, Bytes>> entries;
  entries.reserve(size_);
  // The index walk follows the hash seed; sorting before the result
  // escapes removes that order.
  for (uint64_t slot : slots_) {
    if (slot == kEmptySlot) continue;
    const Row row = ReadRow(blocks_, slot);
    entries.emplace_back(std::string(row.key),
                         Bytes(row.value, row.value + row.value_size));
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

uint64_t KvStore::StateFingerprint() const {
  uint64_t fp = 0;
  // The index walk follows the hash seed; XOR is commutative, so the fold
  // is the same in every order.
  for (uint64_t slot : slots_) {
    if (slot == kEmptySlot) continue;
    const Row row = ReadRow(blocks_, slot);
    uint64_t h = std::hash<std::string_view>{}(row.key);
    for (size_t j = 0; j < row.value_size; ++j)
      h = h * 1099511628211ULL + row.value[j];
    fp ^= h;
  }
  return fp;
}

}  // namespace massbft
