//===- runtime/MergeTree.cpp ---------------------------------------------===//

#include "runtime/MergeTree.h"

#include <stdexcept>
#include <string>

namespace grassp {
namespace runtime {

void MergeTree::updatePath(size_t Leaf) {
  LastCombines = 0;
  for (size_t K = 0, I = Leaf; Levels[K].size() > 1; ++K, I /= 2) {
    if (K + 1 == Levels.size())
      Levels.emplace_back();
    const std::vector<WorkerOutput> &Cur = Levels[K];
    std::vector<WorkerOutput> &Up = Levels[K + 1];
    size_t Parent = I / 2;
    if (Up.size() <= Parent)
      Up.resize(Parent + 1);
    size_t Lc = Parent * 2, Rc = Lc + 1;
    // An odd tail is carried up unchanged until it gains a right
    // sibling. Assigning over the old node reuses its storage.
    Up[Parent] = Cur[Lc];
    if (Rc < Cur.size()) {
      Plan.combine(Up[Parent], Cur[Rc]);
      ++LastCombines;
    }
  }
}

void MergeTree::append(SegmentView Chunk) {
  if (Chunk.Size == 0)
    throw std::invalid_argument("MergeTree::append: empty chunk "
                                "(sources never produce one)");
  if (Levels.empty())
    Levels.emplace_back();
  Levels[0].push_back(Plan.runWorker(Chunk));
  updatePath(Levels[0].size() - 1);
}

void MergeTree::replace(size_t I, SegmentView Chunk) {
  if (I >= chunks())
    throw std::out_of_range("MergeTree::replace: chunk " +
                            std::to_string(I) + " out of range (have " +
                            std::to_string(chunks()) + ")");
  if (Chunk.Size == 0)
    throw std::invalid_argument("MergeTree::replace: empty chunk "
                                "(sources never produce one)");
  Levels[0][I] = Plan.runWorker(Chunk);
  updatePath(I);
}

int64_t MergeTree::query() const {
  if (chunks() == 0)
    throw std::logic_error("MergeTree::query: no chunks appended");
  return Plan.finish(Levels.back().front());
}

} // namespace runtime
} // namespace grassp
