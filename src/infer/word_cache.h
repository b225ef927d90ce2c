#ifndef CONDTD_INFER_WORD_CACHE_H_
#define CONDTD_INFER_WORD_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "alphabet/alphabet.h"
#include "base/arena.h"

namespace condtd {

/// The incremental hash of the streaming fold's dedup keys. An open
/// element frame seeds with its element symbol and steps once per child
/// appended, so the hash of the completed (element, word) key is ready
/// the moment the end tag is seen — the commit probe never re-walks the
/// word. The mix is an FNV-flavored fold.
struct WordHash {
  static uint64_t Seed(Symbol element) {
    return 0xcbf29ce484222325ull ^ static_cast<uint64_t>(element);
  }
  static uint64_t Step(uint64_t h, Symbol symbol) {
    return h ^ (static_cast<uint64_t>(symbol) + 0x9e3779b97f4a7c15ull +
                (h << 6) + (h >> 2));
  }
  /// Whole-key hash: Seed folded over the word. Only cold paths (tests)
  /// should need this.
  static uint64_t Mix(Symbol element, const Symbol* word, size_t length) {
    uint64_t h = Seed(element);
    for (size_t i = 0; i < length; ++i) h = Step(h, word[i]);
    return h;
  }
};

/// Flat open-addressing multiplicity cache for completed (element, word)
/// pairs — the dedup table at the center of the streaming fold.
///
/// Layout: a power-of-two slot array of 1-based entry indices (0 =
/// empty) probed triangularly (step 1, 2, 3, ... visits every slot of a
/// power-of-two table), over an append-only entry vector whose word keys
/// live in a bump `Arena`. The design buys exactly what the fold hot
/// path needs:
///
///  * one predictable indirection per occurrence instead of the node
///    walk + per-key heap string of `std::unordered_map<WordKey, ...>`;
///  * entry indices are stable for the cache's lifetime (growth rebuilds
///    only the slot array from the cached hashes — keys are never
///    re-hashed and never move), so the per-document rollback journal is
///    a plain vector of indices;
///  * `Clear()` is tombstone-free: entries and arena rewind, the slot
///    array is zeroed, and every retained block is reused by the next
///    fill.
///
/// Not thread-safe; each shard owns one, like the folder that feeds it.
class FlatWordCache {
 public:
  struct Entry {
    uint64_t hash = 0;
    const Symbol* word = nullptr;  ///< arena-backed copy, length symbols
    int64_t count = 0;
    Symbol element = kInvalidSymbol;
    uint32_t length = 0;
  };

  struct Upserted {
    uint32_t index = 0;  ///< entry index, stable until Clear()
    bool inserted = false;
  };

  FlatWordCache() { ClearSlots(kInitialSlots); }

  FlatWordCache(const FlatWordCache&) = delete;
  FlatWordCache& operator=(const FlatWordCache&) = delete;

  /// Finds the entry for (element, word) under its precomputed `hash`,
  /// inserting a zero-count entry (word copied into the arena) when
  /// absent. The caller owns the count discipline — the fold path
  /// increments on every occurrence and the rollback journal decrements.
  Upserted Upsert(uint64_t hash, Symbol element, const Symbol* word,
                  uint32_t length) {
    if ((entries_.size() + 1) * kMaxLoadNum >= slots_.size() * kMaxLoadDen) {
      Grow();
    }
    const size_t mask = slots_.size() - 1;
    size_t slot = static_cast<size_t>(hash) & mask;
    for (size_t step = 1;; ++step) {
      uint32_t id = slots_[slot];
      if (id == 0) {
        Entry entry;
        entry.hash = hash;
        entry.element = element;
        entry.length = length;
        entry.count = 0;
        if (length > 0) {
          Symbol* copy = reinterpret_cast<Symbol*>(
              arena_.Allocate(length * sizeof(Symbol)));
          std::memcpy(copy, word, length * sizeof(Symbol));
          entry.word = copy;
        }
        entries_.push_back(entry);
        slots_[slot] = static_cast<uint32_t>(entries_.size());
        probe_steps_ += static_cast<int64_t>(step);
        return {static_cast<uint32_t>(entries_.size() - 1), true};
      }
      const Entry& candidate = entries_[id - 1];
      if (candidate.hash == hash && candidate.element == element &&
          candidate.length == length &&
          (length == 0 ||
           std::memcmp(candidate.word, word, length * sizeof(Symbol)) == 0)) {
        probe_steps_ += static_cast<int64_t>(step);
        return {id - 1, false};
      }
      slot = (slot + step) & mask;
    }
  }

  Entry& entry(uint32_t index) { return entries_[index]; }
  const Entry& entry(uint32_t index) const { return entries_[index]; }

  /// Entries in insertion order — which is first-occurrence order across
  /// the corpus, the same order the reference fold in src/check/ first
  /// folds each distinct word in. Flushing in this order keeps the SOA
  /// state numbering (and therefore SaveState output) aligned with it.
  const std::vector<Entry>& entries() const { return entries_; }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Tombstone-free clear: entries and key storage rewind in O(slots);
  /// every block and the slot array's capacity stay allocated for reuse.
  void Clear() {
    entries_.clear();
    arena_.Reset();
    std::memset(slots_.data(), 0, slots_.size() * sizeof(uint32_t));
  }

  /// Bytes resident in the cache right now: slot array + entry vector
  /// capacity + arena blocks holding the word keys. This is what the
  /// dedup-cache bytes gauge reports — distinct-entry counts alone hide
  /// the key storage, which dominates on long-word corpora.
  size_t bytes_resident() const {
    return slots_.capacity() * sizeof(uint32_t) +
           entries_.capacity() * sizeof(Entry) + arena_.footprint();
  }

  /// Cumulative probe-loop iterations across every Upsert — 1 per
  /// perfect probe. The folder publishes the delta per commit, so
  /// `--stats` exposes clustering before it becomes a throughput bug.
  int64_t probe_steps() const { return probe_steps_; }

 private:
  static constexpr size_t kInitialSlots = 1024;  // power of two
  // Grow at 8/13 ≈ 0.62 load — past that, triangular probe chains start
  // compounding.
  static constexpr size_t kMaxLoadNum = 13;
  static constexpr size_t kMaxLoadDen = 8;

  void ClearSlots(size_t count) {
    slots_.assign(count, 0);
  }

  /// Doubles the slot array and re-seats every entry by its cached hash.
  /// Entries and keys do not move; no key is re-hashed.
  void Grow() {
    const size_t next = slots_.size() * 2;
    ClearSlots(next);
    const size_t mask = next - 1;
    for (uint32_t id = 1; id <= entries_.size(); ++id) {
      size_t slot = static_cast<size_t>(entries_[id - 1].hash) & mask;
      for (size_t step = 1; slots_[slot] != 0; ++step) {
        slot = (slot + step) & mask;
      }
      slots_[slot] = id;
    }
  }

  std::vector<uint32_t> slots_;
  std::vector<Entry> entries_;
  Arena arena_;
  int64_t probe_steps_ = 0;
};

}  // namespace condtd

#endif  // CONDTD_INFER_WORD_CACHE_H_
