#include "study/oram/oram.h"

#include <cmath>
#include <stdexcept>

#include "src/cipher/aead.h"
#include "src/common/serialize.h"
#include "src/prf/feistel.h"

namespace hcpp::oram {

ObliviousStore::ObliviousStore(std::vector<Bytes> blocks, RandomSource& rng)
    : rng_(&rng) {
  if (blocks.empty()) {
    throw std::invalid_argument("ObliviousStore: need at least one block");
  }
  n_ = blocks.size();
  block_size_ = blocks[0].size();
  for (const Bytes& b : blocks) {
    if (b.size() != block_size_) {
      throw std::invalid_argument("ObliviousStore: unequal block sizes");
    }
  }
  k_ = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(n_))));
  epoch_key_ = rng.bytes(32);
  prp_key_ = rng.bytes(32);
  // Initial placement: encrypt every block (plus dummies) and scatter by
  // the epoch PRP.
  server_main_.assign(n_ + k_, Bytes{});
  prf::SmallDomainPrp prp(prp_key_, n_ + k_);
  for (size_t i = 0; i < n_; ++i) {
    server_main_[prp.forward(i)] = seal({i, std::move(blocks[i])});
  }
  for (size_t d = 0; d < k_; ++d) {
    server_main_[prp.forward(n_ + d)] =
        seal({kDummy, rng.bytes(block_size_)});
  }
}

Bytes ObliviousStore::seal(const Stored& s) {
  io::Writer w;
  w.u64(s.id);
  w.raw(s.data);
  return cipher::aead_encrypt(epoch_key_, w.data(), {}, *rng_);
}

ObliviousStore::Stored ObliviousStore::open(BytesView blob) const {
  Bytes plain = cipher::aead_decrypt(epoch_key_, blob, {});
  io::Reader r(plain);
  Stored s;
  s.id = r.u64();
  s.data = r.raw(block_size_);
  return s;
}

Bytes ObliviousStore::read(size_t i) { return access(i, nullptr); }

void ObliviousStore::write(size_t i, Bytes value) {
  if (value.size() != block_size_) {
    throw std::invalid_argument("ObliviousStore::write: wrong block size");
  }
  access(i, &value);
}

Bytes ObliviousStore::access(size_t i, const Bytes* new_value) {
  if (i >= n_) throw std::out_of_range("ObliviousStore: bad index");
  if (accesses_this_epoch_ == k_) reshuffle(*rng_);

  // 1. Scan the whole shelter (the server sees a full scan either way).
  ++trace_.shelter_scans;
  std::optional<size_t> sheltered_at;
  std::optional<Stored> found;
  for (size_t s = 0; s < server_shelter_.size(); ++s) {
    trace_.bytes_transferred += server_shelter_[s].size();
    Stored st = open(server_shelter_[s]);
    if (st.id == i) {
      sheltered_at = s;
      found = std::move(st);
    }
  }

  // 2. Touch exactly one main slot: the real one if not sheltered, else the
  //    next unread dummy. Either way the slot is a fresh PRP output, so the
  //    server cannot tell the two cases apart.
  prf::SmallDomainPrp prp(prp_key_, n_ + k_);
  size_t slot = found.has_value() ? prp.forward(n_ + dummy_cursor_++)
                                  : prp.forward(i);
  trace_.main_slots.push_back(slot);
  trace_.bytes_transferred += server_main_[slot].size();
  if (!found.has_value()) {
    found = open(server_main_[slot]);
    // Replace the consumed slot with an indistinguishable dummy.
    server_main_[slot] = seal({kDummy, rng_->bytes(block_size_)});
  }

  // 3. Apply the write, append to the shelter (re-encrypted, so even an
  //    update is invisible), and finish the access.
  if (new_value != nullptr) found->data = *new_value;
  Bytes result = found->data;
  Bytes sealed = seal(*found);
  trace_.bytes_transferred += sealed.size();
  if (sheltered_at.has_value()) {
    server_shelter_[*sheltered_at] = std::move(sealed);
  } else {
    server_shelter_.push_back(std::move(sealed));
  }
  ++accesses_this_epoch_;
  return result;
}

void ObliviousStore::reshuffle(RandomSource& rng) {
  // Download everything, merge shelter updates, re-key, re-permute, upload.
  std::vector<Bytes> plain(n_);
  for (const Bytes& blob : server_main_) {
    trace_.bytes_transferred += blob.size();
    Stored s = open(blob);
    if (s.id != kDummy) plain[s.id] = std::move(s.data);
  }
  for (const Bytes& blob : server_shelter_) {
    trace_.bytes_transferred += blob.size();
    Stored s = open(blob);
    if (s.id != kDummy) plain[s.id] = std::move(s.data);
  }
  epoch_key_ = rng.bytes(32);
  prp_key_ = rng.bytes(32);
  server_shelter_.clear();
  server_main_.assign(n_ + k_, Bytes{});
  prf::SmallDomainPrp prp(prp_key_, n_ + k_);
  for (size_t i = 0; i < n_; ++i) {
    Bytes sealed = seal({i, std::move(plain[i])});
    trace_.bytes_transferred += sealed.size();
    server_main_[prp.forward(i)] = std::move(sealed);
  }
  for (size_t d = 0; d < k_; ++d) {
    Bytes sealed = seal({kDummy, rng.bytes(block_size_)});
    trace_.bytes_transferred += sealed.size();
    server_main_[prp.forward(n_ + d)] = std::move(sealed);
  }
  accesses_this_epoch_ = 0;
  dummy_cursor_ = 0;
  ++trace_.reshuffles;
}

}  // namespace hcpp::oram
