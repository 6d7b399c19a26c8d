// Square-root ORAM (Goldreich–Ostrovsky [15], [16]) — the "well established
// schemes to hide this information with lower efficiency" that §VI.B offers
// against category-1a traffic analysis (the server learning which memory
// addresses successive searches touch). HCPP's default countermeasure is
// keyword ambiguity; this substrate realises the stronger alternative and
// benchmark E6 quantifies its cost.
//
// Layout per epoch: n logical blocks + k = ⌈√n⌉ dummies, shuffled by a
// fresh PRP; a shelter of k slots. Each access scans the shelter, touches
// exactly one main slot (the real one, or the next dummy when the target is
// already sheltered), and appends to the shelter. After k accesses the
// client reshuffles everything under fresh keys. The server-visible trace
// therefore depends only on the access *count*, never on which logical
// blocks were accessed.
#pragma once

#include <optional>
#include <vector>

#include "src/common/random.h"

namespace hcpp::oram {

/// What the storage server observes; tests and benches assert on this.
struct AccessTrace {
  std::vector<uint64_t> main_slots;  // physical main-memory slot per access
  size_t shelter_scans = 0;          // full shelter scans (one per access)
  size_t reshuffles = 0;
  uint64_t bytes_transferred = 0;    // total server<->client traffic
};

class ObliviousStore {
 public:
  /// Takes ownership of `blocks` (all the same size, at least one).
  ObliviousStore(std::vector<Bytes> blocks, RandomSource& rng);

  [[nodiscard]] size_t size() const noexcept { return n_; }
  /// Accesses per epoch before a reshuffle (⌈√n⌉).
  [[nodiscard]] size_t epoch_length() const noexcept { return k_; }

  /// Oblivious read of logical block `i`.
  Bytes read(size_t i);
  /// Oblivious write (same access pattern as a read).
  void write(size_t i, Bytes value);

  [[nodiscard]] const AccessTrace& trace() const noexcept { return trace_; }

 private:
  struct Stored {
    uint64_t id;  // logical id, or kDummy
    Bytes data;
  };
  static constexpr uint64_t kDummy = ~0ull;

  Bytes access(size_t i, const Bytes* new_value);
  void reshuffle(RandomSource& rng);
  [[nodiscard]] Bytes seal(const Stored& s);
  [[nodiscard]] Stored open(BytesView blob) const;

  size_t n_ = 0;
  size_t k_ = 0;
  size_t block_size_ = 0;

  // Server-side: encrypted main memory (n + k slots) and shelter.
  std::vector<Bytes> server_main_;
  std::vector<Bytes> server_shelter_;

  // Client-side: epoch key material and counters.
  Bytes epoch_key_;
  Bytes prp_key_;
  size_t accesses_this_epoch_ = 0;
  size_t dummy_cursor_ = 0;
  RandomSource* rng_;

  AccessTrace trace_;
};

}  // namespace hcpp::oram
