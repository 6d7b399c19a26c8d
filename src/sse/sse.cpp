#include "src/sse/sse.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "src/cipher/aead.h"
#include "src/cipher/chacha20.h"
#include "src/cipher/drbg.h"
#include "src/hash/hmac.h"
#include "src/hash/sha256.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/par/pool.h"

namespace hcpp::sse {

namespace {

constexpr size_t kKeyLen = 32;
constexpr size_t kVaddrLen = 16;
constexpr size_t kMaskLen = 40;  // 8-byte address + 32-byte λ
constexpr size_t kTagLen = 4;

// Node plaintext layout: has_next(1) ‖ fid(8) ‖ λ_next(32) ‖ next_addr(8).
Bytes encode_node(bool has_next, FileId fid, BytesView next_key,
                  uint64_t next_addr) {
  Bytes n;
  n.reserve(kNodeSize);
  n.push_back(has_next ? 1 : 0);
  for (int s = 56; s >= 0; s -= 8) n.push_back(static_cast<uint8_t>(fid >> s));
  append(n, next_key);
  for (int s = 56; s >= 0; s -= 8) {
    n.push_back(static_cast<uint8_t>(next_addr >> s));
  }
  return n;
}

// Per-node encryption: single-use key λ, so a fixed-nonce stream cipher is
// exactly the semantically secure SKE the construction requires and keeps
// slots at kNodeSize bytes.
Bytes crypt_node(BytesView lambda, BytesView node) {
  Bytes nonce(cipher::kChaChaNonceSize, 0);
  return cipher::chacha20(lambda, nonce, 0, node);
}

// Per-shard randomness: fork one deterministic child stream per shard off
// the parent rng. Seeds are drawn serially *before* dispatch, so for a fixed
// parent seed and shard count every worker sees the same stream.
std::vector<cipher::Drbg> fork_streams(RandomSource& rng, size_t shards) {
  std::vector<cipher::Drbg> out;
  out.reserve(shards);
  for (size_t s = 0; s < shards; ++s) out.emplace_back(rng.bytes(32));
  return out;
}

Bytes trapdoor_tag(BytesView address, BytesView mask) {
  Bytes input = concat(address, mask);
  Bytes digest = hash::sha256_bytes(input);
  digest.resize(kTagLen);
  return digest;
}

}  // namespace

Keys Keys::generate(RandomSource& rng) {
  Keys k;
  k.a = rng.bytes(kKeyLen);
  k.b = rng.bytes(kKeyLen);
  k.c = rng.bytes(kKeyLen);
  k.d = rng.bytes(kKeyLen);
  k.s = rng.bytes(kKeyLen);
  return k;
}

Bytes Keys::to_bytes() const {
  io::Writer w;
  w.bytes(a);
  w.bytes(b);
  w.bytes(c);
  w.bytes(d);
  w.bytes(s);
  return w.take();
}

Keys Keys::from_bytes(BytesView bv) {
  io::Reader r(bv);
  Keys k;
  k.a = r.bytes();
  k.b = r.bytes();
  k.c = r.bytes();
  k.d = r.bytes();
  k.s = r.bytes();
  return k;
}

Bytes PlainFile::to_bytes() const {
  io::Writer w;
  w.u64(id);
  w.str(name);
  w.bytes(content);
  w.u32(static_cast<uint32_t>(keywords.size()));
  for (const std::string& kw : keywords) w.str(kw);
  return w.take();
}

PlainFile PlainFile::from_bytes(BytesView bv) {
  io::Reader r(bv);
  PlainFile f;
  f.id = r.u64();
  f.name = r.str();
  f.content = r.bytes();
  size_t n = r.count32(4);  // each keyword: u32 length prefix
  f.keywords.reserve(n);
  for (size_t i = 0; i < n; ++i) f.keywords.push_back(r.str());
  return f;
}

SecureIndex build_index(std::span<const PlainFile> files, const Keys& keys,
                        RandomSource& rng, double padding_factor,
                        par::ThreadPool* pool) {
  if (padding_factor < 1.0) {
    throw std::invalid_argument("build_index: padding_factor < 1");
  }
  obs::Span span("sse:index_build");
  obs::count(obs::kSseIndexBuild);
  // Invert the file->keywords relation (ordered for determinism).
  std::map<std::string, std::vector<FileId>> postings;
  for (const PlainFile& f : files) {
    for (const std::string& kw : f.keywords) postings[kw].push_back(f.id);
  }
  // Keyword i's list is nodes [start, start + |L_i|) of one counter that
  // runs over the keywords in order; node ctr lives at address φ(ctr).
  struct List {
    const std::string* kw;
    const std::vector<FileId>* fids;
    uint64_t start;
  };
  std::vector<List> lists;
  lists.reserve(postings.size());
  uint64_t total_nodes = 0;
  for (const auto& [kw, fids] : postings) {
    lists.push_back({&kw, &fids, total_nodes});
    total_nodes += fids.size();
  }

  SecureIndex si;
  size_t array_size = std::max<size_t>(
      8, static_cast<size_t>(static_cast<double>(total_nodes) *
                             padding_factor));
  si.array_a.assign(array_size, Bytes());
  prf::SmallDomainPrp phi(keys.a, array_size);
  TrapdoorGen gen(keys);
  // Writes one keyword's encrypted nodes into A and returns its entry
  // T[ϖ_c(kw)] = (head_addr ‖ λ_0) ⊕ f_b(kw). φ runs once per node: the head
  // address is the first node's, and each node's next address is the next
  // node's own.
  auto write_list = [&](const List& list, RandomSource& rng) {
    const std::vector<FileId>& fids = *list.fids;
    Bytes lambda_prev = rng.bytes(kKeyLen);  // λ_{i,0}
    uint64_t addr = phi.forward(list.start);
    Bytes entry;
    for (int s = 56; s >= 0; s -= 8) {
      entry.push_back(static_cast<uint8_t>(addr >> s));
    }
    append(entry, lambda_prev);
    std::pair<std::string, Bytes> out(hex_encode(gen.address(*list.kw)),
                                      xor_bytes(entry, gen.mask(*list.kw)));
    for (size_t j = 0; j < fids.size(); ++j) {
      bool has_next = (j + 1 < fids.size());
      uint64_t next_addr = has_next ? phi.forward(list.start + j + 1) : 0;
      Bytes lambda_next = has_next ? rng.bytes(kKeyLen) : Bytes(kKeyLen, 0);
      Bytes node = encode_node(has_next, fids[j], lambda_next, next_addr);
      si.array_a[addr] = crypt_node(lambda_prev, node);
      lambda_prev = std::move(lambda_next);
      addr = next_addr;
    }
    return out;
  };

  if (pool == nullptr || pool->size() <= 1) {
    // Legacy serial schedule, byte-for-byte: one rng stream, postings order.
    // A size-1 pool takes this path too, so "single-threaded" always means
    // the exact serial bytes (DESIGN.md §9).
    for (const List& list : lists) si.table_t.insert(write_list(list, rng));
    for (Bytes& slot : si.array_a) {
      if (slot.empty()) slot = rng.bytes(kNodeSize);
    }
    return si;
  }

  // Sharded build. Each keyword keeps its node-counter range — the same ctr
  // values the serial schedule uses — so φ scatters nodes to the same
  // distinct addresses regardless of thread count, and every array write
  // lands on a slot no other worker touches. Only λ keys and padding come
  // from the forked per-shard streams; the index *structure* is
  // thread-count-invariant.
  size_t kw_shards = pool->shard_count(lists.size());
  std::vector<cipher::Drbg> kw_streams = fork_streams(rng, kw_shards);
  // Per-shard table entries, merged serially after the barrier (the
  // unordered_map is not safe for concurrent insertion).
  std::vector<std::vector<std::pair<std::string, Bytes>>> shard_entries(
      kw_shards);
  pool->for_shards(lists.size(), [&](size_t shard, size_t begin, size_t end) {
    cipher::Drbg& srng = kw_streams[shard];
    auto& entries = shard_entries[shard];
    entries.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      entries.push_back(write_list(lists[i], srng));
    }
  });
  for (auto& entries : shard_entries) {
    for (auto& [k, v] : entries) si.table_t[k] = std::move(v);
  }

  // Fill unused slots with random bytes so the array looks uniform.
  size_t fill_shards = pool->shard_count(array_size);
  std::vector<cipher::Drbg> fill_streams = fork_streams(rng, fill_shards);
  pool->for_shards(array_size, [&](size_t shard, size_t begin, size_t end) {
    cipher::Drbg& srng = fill_streams[shard];
    for (size_t i = begin; i < end; ++i) {
      if (si.array_a[i].empty()) si.array_a[i] = srng.bytes(kNodeSize);
    }
  });
  return si;
}

EncryptedCollection encrypt_collection(std::span<const PlainFile> files,
                                       const Keys& keys, RandomSource& rng,
                                       par::ThreadPool* pool) {
  EncryptedCollection ec;
  if (pool == nullptr || pool->size() <= 1) {
    for (const PlainFile& f : files) {
      ec.files[f.id] = cipher::aead_encrypt(keys.s, f.to_bytes(), {}, rng);
    }
    return ec;
  }
  size_t shards = pool->shard_count(files.size());
  std::vector<cipher::Drbg> streams = fork_streams(rng, shards);
  std::vector<std::vector<std::pair<FileId, Bytes>>> shard_out(shards);
  pool->for_shards(files.size(), [&](size_t shard, size_t begin, size_t end) {
    cipher::Drbg& srng = streams[shard];
    auto& out = shard_out[shard];
    out.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      out.emplace_back(files[i].id, cipher::aead_encrypt(
                                        keys.s, files[i].to_bytes(), {}, srng));
    }
  });
  for (auto& out : shard_out) {
    for (auto& [id, blob] : out) ec.files[id] = std::move(blob);
  }
  return ec;
}

PlainFile decrypt_file(const Keys& keys, BytesView blob) {
  return PlainFile::from_bytes(cipher::aead_decrypt(keys.s, blob, {}));
}

std::vector<PlainFile> decrypt_collection(const Keys& keys,
                                          const EncryptedCollection& ec,
                                          par::ThreadPool* pool) {
  std::vector<FileId> ids;
  ids.reserve(ec.files.size());
  for (const auto& [id, blob] : ec.files) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  std::vector<std::optional<PlainFile>> slots(ids.size());
  auto decrypt_one = [&](size_t i) {
    try {
      slots[i] = decrypt_file(keys, ec.files.at(ids[i]));
    } catch (const cipher::AuthError&) {
      // Tampered blob: skip it rather than fail the whole collection.
    }
  };
  if (pool == nullptr) {
    for (size_t i = 0; i < ids.size(); ++i) decrypt_one(i);
  } else {
    pool->parallel_for(ids.size(), decrypt_one);
  }
  std::vector<PlainFile> out;
  out.reserve(ids.size());
  for (auto& slot : slots) {
    if (slot.has_value()) out.push_back(std::move(*slot));
  }
  return out;
}

TrapdoorGen::TrapdoorGen(const Keys& keys)
    : prp_c_(keys.c, kVaddrLen), f_b_(keys.b) {}

// ϖ_c: keyword -> 16-byte virtual address (hash to the PRP's domain, then
// permute, mirroring the paper's PRP-on-padded-keyword).
Bytes TrapdoorGen::address(std::string_view kw) const {
  Bytes h = hash::sha256_bytes(to_bytes(kw));
  h.resize(kVaddrLen);
  return prp_c_.forward(h);
}

// f_b: keyword -> 40-byte mask.
Bytes TrapdoorGen::mask(std::string_view kw) const {
  return f_b_.eval(to_bytes(kw), kMaskLen);
}

Trapdoor TrapdoorGen::make(std::string_view kw) const {
  return Trapdoor{address(kw), mask(kw)};
}

Trapdoor make_trapdoor(const Keys& keys, std::string_view kw) {
  return TrapdoorGen(keys).make(kw);
}

std::vector<FileId> search(const SecureIndex& index, const Trapdoor& td) {
  obs::Span span("sse:search");
  obs::count(obs::kSseSearch);
  std::vector<FileId> result;
  auto it = index.table_t.find(hex_encode(td.address));
  if (it == index.table_t.end()) return result;
  if (it->second.size() != kMaskLen || td.mask.size() != kMaskLen) {
    return result;
  }
  Bytes entry = xor_bytes(it->second, td.mask);
  uint64_t addr = 0;
  for (int i = 0; i < 8; ++i) addr = (addr << 8) | entry[i];
  Bytes lambda(entry.begin() + 8, entry.end());
  // Walk the list; bound iterations by the array size to stay robust against
  // corrupted indexes.
  for (size_t hops = 0; hops < index.array_a.size(); ++hops) {
    if (addr >= index.array_a.size()) break;
    Bytes node = crypt_node(lambda, index.array_a[addr]);
    bool has_next = node[0] == 1;
    FileId fid = 0;
    for (int i = 0; i < 8; ++i) fid = (fid << 8) | node[1 + i];
    result.push_back(fid);
    if (!has_next) break;
    lambda.assign(node.begin() + 9, node.begin() + 9 + 32);
    addr = 0;
    for (int i = 0; i < 8; ++i) addr = (addr << 8) | node[41 + i];
  }
  obs::count(obs::kSseSearchHits, result.size());
  return result;
}

Bytes Trapdoor::to_bytes() const {
  Bytes out = concat(address, mask);
  append(out, trapdoor_tag(address, mask));
  return out;
}

std::optional<Trapdoor> Trapdoor::from_bytes(BytesView b) {
  if (b.size() != kTrapdoorSize) return std::nullopt;
  Trapdoor td;
  td.address.assign(b.begin(), b.begin() + kVaddrLen);
  td.mask.assign(b.begin() + kVaddrLen, b.begin() + kVaddrLen + kMaskLen);
  Bytes tag(b.begin() + kVaddrLen + kMaskLen, b.end());
  if (!ct_equal(tag, trapdoor_tag(td.address, td.mask))) return std::nullopt;
  return td;
}

Bytes wrap_trapdoor(BytesView d, const Trapdoor& td) {
  prf::FeistelPrp theta(Bytes(d.begin(), d.end()), kTrapdoorSize);
  return theta.forward(td.to_bytes());
}

std::optional<Trapdoor> unwrap_trapdoor(BytesView d, BytesView wrapped) {
  if (wrapped.size() != kTrapdoorSize) return std::nullopt;
  prf::FeistelPrp theta(Bytes(d.begin(), d.end()), kTrapdoorSize);
  return Trapdoor::from_bytes(theta.inverse(wrapped));
}

Bytes SecureIndex::to_bytes() const {
  io::Writer w;
  w.u64(array_a.size());
  for (const Bytes& slot : array_a) w.raw(slot);
  w.u64(table_t.size());
  // Deterministic order for stable wire bytes.
  std::vector<std::pair<std::string, Bytes>> entries(table_t.begin(),
                                                     table_t.end());
  std::sort(entries.begin(), entries.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [k, v] : entries) {
    w.str(k);
    w.bytes(v);
  }
  return w.take();
}

SecureIndex SecureIndex::from_bytes(BytesView bv) {
  io::Reader r(bv);
  SecureIndex si;
  size_t n = r.count64(kNodeSize);
  si.array_a.reserve(n);
  for (size_t i = 0; i < n; ++i) si.array_a.push_back(r.raw(kNodeSize));
  size_t m = r.count64(8);  // each entry: u32 key len + u32 value len
  for (size_t i = 0; i < m; ++i) {
    std::string k = r.str();
    si.table_t[k] = r.bytes();
  }
  r.expect_done("SecureIndex");
  return si;
}

size_t SecureIndex::size_bytes() const {
  size_t total = 16;
  total += array_a.size() * kNodeSize;
  for (const auto& [k, v] : table_t) total += k.size() + v.size() + 8;
  return total;
}

Bytes EncryptedCollection::to_bytes() const {
  io::Writer w;
  w.u64(files.size());
  std::vector<FileId> ids;
  ids.reserve(files.size());
  for (const auto& [id, blob] : files) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (FileId id : ids) {
    w.u64(id);
    w.bytes(files.at(id));
  }
  return w.take();
}

EncryptedCollection EncryptedCollection::from_bytes(BytesView bv) {
  io::Reader r(bv);
  EncryptedCollection ec;
  size_t n = r.count64(12);  // each file: u64 id + u32 length prefix
  for (size_t i = 0; i < n; ++i) {
    FileId id = r.u64();
    ec.files[id] = r.bytes();
  }
  r.expect_done("EncryptedCollection");
  return ec;
}

size_t EncryptedCollection::size_bytes() const {
  size_t total = 8;
  for (const auto& [id, blob] : files) total += 12 + blob.size();
  return total;
}

}  // namespace hcpp::sse
