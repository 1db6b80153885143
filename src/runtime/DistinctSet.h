//===- runtime/DistinctSet.h - Insertion-ordered int64 hash set ----------===//
//
// Open-addressing hash set used by the "counting distinct elements"
// kernels. The paper's serial reference code does a linear membership
// scan, which makes every distinct-elements run O(n*k); this set keeps
// the same observable behavior (insertion order is preserved) at O(n)
// expected.
//
// Keys are hashed with the SplitMix64 finalizer — the same mixer as
// support/Random.h — which is enough to break up the adversarial
// low-entropy workloads the fuzzer generates.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_RUNTIME_DISTINCTSET_H
#define GRASSP_RUNTIME_DISTINCTSET_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace grassp {
namespace runtime {

class DistinctSet {
public:
  explicit DistinctSet(size_t ExpectedDistinct = 0) {
    size_t Cap = 64;
    while (Cap * 7 < ExpectedDistinct * 10)
      Cap *= 2;
    Keys.resize(Cap);
    Used.assign(Cap, 0);
    Mask = Cap - 1;
  }

  /// Inserts \p V unless already present; returns true when newly added.
  bool insert(int64_t V) {
    size_t I = slotFor(V);
    if (Used[I])
      return false;
    Used[I] = 1;
    Keys[I] = V;
    Order.push_back(V);
    if (Order.size() * 10 >= Keys.size() * 7)
      grow();
    return true;
  }

  bool contains(int64_t V) const { return Used[slotFor(V)]; }

  size_t size() const { return Order.size(); }

  /// The distinct elements in first-seen order.
  const std::vector<int64_t> &order() const { return Order; }
  std::vector<int64_t> takeOrder() { return std::move(Order); }

private:
  static uint64_t mix(uint64_t X) {
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
    return X ^ (X >> 31);
  }

  /// First slot in the probe chain holding \p V, or the free slot where
  /// it belongs.
  size_t slotFor(int64_t V) const {
    size_t I = static_cast<size_t>(mix(static_cast<uint64_t>(V))) & Mask;
    while (Used[I] && Keys[I] != V)
      I = (I + 1) & Mask;
    return I;
  }

  void grow() {
    std::vector<int64_t> OldKeys = std::move(Keys);
    std::vector<uint8_t> OldUsed = std::move(Used);
    Keys.assign(OldKeys.size() * 2, 0);
    Used.assign(OldKeys.size() * 2, 0);
    Mask = Keys.size() - 1;
    for (size_t I = 0; I != OldKeys.size(); ++I) {
      if (!OldUsed[I])
        continue;
      size_t J = slotFor(OldKeys[I]);
      Used[J] = 1;
      Keys[J] = OldKeys[I];
    }
  }

  std::vector<int64_t> Keys;
  std::vector<uint8_t> Used;
  std::vector<int64_t> Order;
  size_t Mask = 0;
};

} // namespace runtime
} // namespace grassp

#endif // GRASSP_RUNTIME_DISTINCTSET_H
