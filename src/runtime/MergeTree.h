//===- runtime/MergeTree.h - Incremental recompute over segment summaries -===//
//
// The online-aggregation payoff of a merge that composes: a balanced
// tree of per-chunk segment summaries (runtime::WorkerOutput), keyed by
// chunk index. append(chunk) folds ONLY the new chunk and re-combines
// the O(log n) internal nodes on its root path with the plan's ⊕
// (CompiledPlan::combine); replace(i, chunk) re-folds only chunk i and
// the same path. query() finishes the root. A from-scratch refold
// touches every element; the tree touches one chunk — that asymmetry is
// what bench_stream measures. Every plan shape takes this one path.
//
// Soundness: the runner's merge is finish() of the LEFT fold of ⊕; the
// tree re-associates that fold, which is sound where ⊕ is associative
// on the summaries that workers produce:
//
//  * no-prefix plans: ⊕ is the merge m. The no-prefix induction of
//    synth/EquivCheck proves fold(A ++ B) = m(fold A, fold B), so on
//    fold images m(m(x, y), z) and m(x, m(y, z)) are both
//    fold(A ++ B ++ C) (a plan accepted on the bounded shapes alone has
//    this only up to their bounds);
//  * constant-prefix plans: a summary is (first head, m-combination of
//    the repaired states, last unrepaired state). ⊕ repairs A's last
//    state with B's head and m-combines; re-association therefore only
//    re-brackets m over the same repaired states that the flat merge
//    combines, which is sound under the same homomorphism property;
//  * bag plans: ⊕ is the union of the sorted distinct sets;
//  * conditional-prefix plans: if A found its boundary, ⊕ keeps A's
//    boundary and tables and folds B into the serial state A.D by
//    merge1; otherwise it takes B's boundary and suffix state and
//    composes the prefix tables (or concatenates the refold prefix).
//    W(A) ⊕ W(B) = W(A ++ B) field for field whenever
//    merge1(c, W(B)) = fold(c, B) at serial states c — A.D is one, and
//    the cond-prefix induction of synth/EquivCheck proves exactly that
//    equation for summary plans — so every bracketing computes W of the
//    whole stream. No proof query beyond acceptance's is needed. The
//    argument is about the code that runs: the worker's prefix step,
//    upd, the boundary combine and the table composition of ⊕ are
//    compiled from synth::PlanExecutor's stepWorker, applyUpd,
//    crossBoundary and composeTables (runtime/Kernels.h), the terms
//    whose merge1 the induction proves. composeTables applies B's
//    entries with stepWorker's own composeParam and selectByValuation,
//    and those compose associatively, so tables built across a ⊕ equal
//    the tables the worker builds over A ++ B.
//
// Every tree query is differentially checked against a full refold in
// runtime_stream_test and the fuzz_smoke streaming slice, and the
// DiffOracle folds summaries over a random ⊕ tree on every check.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_RUNTIME_MERGETREE_H
#define GRASSP_RUNTIME_MERGETREE_H

#include "runtime/Kernels.h"

#include <cstdint>
#include <vector>

namespace grassp {
namespace runtime {

class MergeTree {
public:
  explicit MergeTree(const CompiledPlan &Plan) : Plan(Plan) {}

  /// Folds \p Chunk as chunk index chunks() and re-combines its root
  /// path. Chunks must be non-empty (the SegmentSource invariant);
  /// throws std::invalid_argument otherwise.
  void append(SegmentView Chunk);

  /// Re-folds chunk \p I from \p Chunk's data and re-combines its root
  /// path. The replacement may change the chunk's length.
  void replace(size_t I, SegmentView Chunk);

  /// Output over all appended chunks. Throws std::logic_error on an
  /// empty tree (mirrors the empty-workload contract).
  int64_t query() const;

  size_t chunks() const { return Levels.empty() ? 0 : Levels[0].size(); }
  uint64_t elements() const {
    return Levels.empty() ? 0 : Levels.back().front().Elems;
  }

  /// ⊕ applications performed by the last append/replace (path
  /// recombines; the per-update work bench_stream reports).
  size_t lastUpdateCombines() const { return LastCombines; }

private:
  void updatePath(size_t Leaf);

  const CompiledPlan &Plan;
  size_t LastCombines = 0;

  // Levels[0] = chunk summaries, Levels[k][i] covers chunks
  // [i*2^k, (i+1)*2^k); an odd tail node is carried up unchanged. The
  // last level holds the root alone.
  std::vector<std::vector<WorkerOutput>> Levels;
};

} // namespace runtime
} // namespace grassp

#endif // GRASSP_RUNTIME_MERGETREE_H
