#ifndef WEBTX_SCHED_INDEXED_PRIORITY_QUEUE_H_
#define WEBTX_SCHED_INDEXED_PRIORITY_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace webtx {

/// Min-heap over dense 32-bit ids with an id -> heap-position index,
/// supporting O(log n) push / pop / erase / key update and O(1) membership
/// tests. This is the "balanced binary search tree" priority structure of
/// Sec. III-A2: every scheduler event costs O(log N).
///
/// Ordering is (key, id) lexicographic, so ties are deterministic (lower id
/// wins).
class IndexedPriorityQueue {
 public:
  IndexedPriorityQueue() = default;

  /// Pre-sizes the position index AND the heap storage for ids in
  /// [0, n), so subsequent Push calls never reallocate (previously only
  /// the index map was sized, and the first pushes after construction
  /// still grew the heap vector — pinned by the 262k storm case in
  /// tests/sim/allocation_test.cc).
  explicit IndexedPriorityQueue(size_t n) { Reserve(n); }

  /// Pre-sizes the position index for ids in [0, n) and reserves heap
  /// capacity for n entries, so subsequent Push calls never reallocate.
  void Reserve(size_t n) {
    if (pos_.size() < n) pos_.resize(n, kNoPos);
    heap_.reserve(n);
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  bool Contains(uint32_t id) const {
    return id < pos_.size() && pos_[id] != kNoPos;
  }

  /// Current key of a contained id.
  double KeyOf(uint32_t id) const {
    WEBTX_DCHECK(Contains(id));
    return heap_[pos_[id]].key;
  }

  /// Inserts `id` with `key`. The id must not be present.
  void Push(uint32_t id, double key) {
    if (id >= pos_.size()) pos_.resize(id + 1, kNoPos);
    WEBTX_DCHECK(pos_[id] == kNoPos);
    heap_.push_back(Entry{key, id});
    pos_[id] = heap_.size() - 1;
    SiftUp(heap_.size() - 1);
  }

  /// The id with the smallest (key, id). Queue must be non-empty.
  uint32_t Top() const {
    WEBTX_DCHECK(!heap_.empty());
    return heap_[0].id;
  }

  double TopKey() const {
    WEBTX_DCHECK(!heap_.empty());
    return heap_[0].key;
  }

  /// Removes and returns the minimum id.
  uint32_t Pop() {
    const uint32_t id = Top();
    Erase(id);
    return id;
  }

  /// Removes `id` if present; returns whether it was present.
  bool Erase(uint32_t id) {
    if (!Contains(id)) return false;
    const size_t i = pos_[id];
    const size_t last = heap_.size() - 1;
    if (i != last) {
      SwapEntries(i, last);
      heap_.pop_back();
      pos_[id] = kNoPos;
      // The moved entry may need to go either direction.
      if (!SiftUp(i)) SiftDown(i);
    } else {
      heap_.pop_back();
      pos_[id] = kNoPos;
    }
    return true;
  }

  /// Changes the key of a contained id.
  void Update(uint32_t id, double key) {
    WEBTX_DCHECK(Contains(id));
    const size_t i = pos_[id];
    heap_[i].key = key;
    if (!SiftUp(i)) SiftDown(i);
  }

  /// Changes the key of a contained id only when it actually differs,
  /// skipping the sift cycle (and its cache traffic) on no-op re-keys.
  /// Returns whether the key changed.
  bool UpdateKeyIfChanged(uint32_t id, double key) {
    WEBTX_DCHECK(Contains(id));
    const size_t i = pos_[id];
    if (heap_[i].key == key) return false;
    heap_[i].key = key;
    if (!SiftUp(i)) SiftDown(i);
    return true;
  }

  /// Push, or Update when already present.
  void PushOrUpdate(uint32_t id, double key) {
    if (Contains(id)) {
      Update(id, key);
    } else {
      Push(id, key);
    }
  }

  /// Replaces the queue's contents with `items` in O(n) via Floyd's
  /// bottom-up heapify (vs. n individual Pushes at O(n log n)), reserving
  /// capacity for `capacity` ids (>= items.size()) so later Pushes stay
  /// allocation-free. Ids must be unique.
  void ReserveAndBulkLoad(const std::vector<std::pair<uint32_t, double>>& items,
                          size_t capacity = 0) {
    Clear();
    Reserve(capacity > items.size() ? capacity : items.size());
    for (const auto& [id, key] : items) {
      if (id >= pos_.size()) pos_.resize(id + 1, kNoPos);
      WEBTX_DCHECK(pos_[id] == kNoPos) << "duplicate id in bulk load";
      heap_.push_back(Entry{key, id});
      pos_[id] = heap_.size() - 1;
    }
    if (heap_.size() > 1) {
      for (size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i);
    }
  }

  void Clear() {
    for (const Entry& e : heap_) pos_[e.id] = kNoPos;
    heap_.clear();
  }

  /// One frontier node of the read-only top-k walk: a heap slot plus a
  /// copy of its (key, id) so comparisons never touch the main heap.
  struct FrontierEntry {
    double key;
    uint32_t id;
    uint32_t slot;
  };
  /// Caller-owned scratch for AppendTopK; reuse it across calls so the
  /// walk is allocation-free once warm (it never exceeds 2k entries).
  using TopKScratch = std::vector<FrontierEntry>;

  /// Appends the queue's min(k, size) smallest ids to `out`, in exactly
  /// the (key, id) order k successive Pops would produce, WITHOUT
  /// mutating the heap. The frontier holds untaken heap slots whose
  /// parents were taken, sorted least first in the window [head, size)
  /// of `frontier`: a take reads the window's head, and the taken slot's
  /// children are filed by insertion from the back. The window keeps at
  /// most as many entries as takes are left — an entry behind that many
  /// smaller ones can never be taken, nor can anything below it — so a
  /// child that would fall past the end is dropped, and children go
  /// unexpanded after the k-th take. A heap child usually ranks behind
  /// most of the frontier, so filing from the back shifts few entries.
  /// The main heap sees no sifts, no position updates and no writes.
  void AppendTopK(size_t k, std::vector<uint32_t>& out,
                  TopKScratch& frontier) const {
    frontier.clear();
    if (k == 0 || heap_.empty()) return;
    frontier.push_back(FrontierEntry{heap_[0].key, heap_[0].id, 0});
    size_t head = 0;
    for (size_t left = k; left > 0 && head < frontier.size();) {
      const size_t first_child =
          2 * static_cast<size_t>(frontier[head].slot) + 1;
      out.push_back(frontier[head].id);
      ++head;
      --left;
      for (size_t child = first_child;
           left > 0 && child < first_child + 2 && child < heap_.size();
           ++child) {
        const FrontierEntry e{heap_[child].key, heap_[child].id,
                              static_cast<uint32_t>(child)};
        if (frontier.size() - head == left) {
          if (!PopsBefore(e, frontier.back())) continue;
          frontier.pop_back();
        }
        frontier.push_back(e);
        size_t i = frontier.size() - 1;
        for (; i > head && PopsBefore(e, frontier[i - 1]); --i) {
          frontier[i] = frontier[i - 1];
        }
        frontier[i] = e;
      }
    }
  }

 private:
  struct Entry {
    double key;
    uint32_t id;
  };
  static constexpr size_t kNoPos = std::numeric_limits<size_t>::max();

  static bool Less(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }

  static bool PopsBefore(const FrontierEntry& a, const FrontierEntry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }

  void SwapEntries(size_t i, size_t j) {
    std::swap(heap_[i], heap_[j]);
    pos_[heap_[i].id] = i;
    pos_[heap_[j].id] = j;
  }

  /// Returns true if the entry moved.
  bool SiftUp(size_t i) {
    bool moved = false;
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Less(heap_[i], heap_[parent])) break;
      SwapEntries(i, parent);
      i = parent;
      moved = true;
    }
    return moved;
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    while (true) {
      const size_t left = 2 * i + 1;
      const size_t right = left + 1;
      size_t smallest = i;
      if (left < n && Less(heap_[left], heap_[smallest])) smallest = left;
      if (right < n && Less(heap_[right], heap_[smallest])) smallest = right;
      if (smallest == i) break;
      SwapEntries(i, smallest);
      i = smallest;
    }
  }

  std::vector<Entry> heap_;
  std::vector<size_t> pos_;
};

}  // namespace webtx

#endif  // WEBTX_SCHED_INDEXED_PRIORITY_QUEUE_H_
