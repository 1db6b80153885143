//===- smt/Solver.h - Z3-backed SMT solving over the IR ------------------===//
//
// A thin, layering-friendly facade over the Z3 C++ API. The rest of the
// codebase speaks ir::ExprRef; this class lowers IR terms to Z3, runs
// satisfiability checks, and reads models back as plain integers. Z3
// headers stay out of public headers (pimpl).
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_SMT_SOLVER_H
#define GRASSP_SMT_SOLVER_H

#include "ir/Expr.h"
#include "support/Cancel.h"

#include <cstdint>
#include <memory>
#include <string>

namespace grassp {
namespace smt {

enum class SatResult {
  Sat,
  Unsat,
  Unknown,   ///< The solver gave up within its budget (e.g. timeout).
  Cancelled, ///< The caller's CancelToken fired; the query was
             ///< interrupted (Z3_solver_interrupt) or never started.
};

/// An incremental SMT solver session over one Z3 context. Variables are
/// identified by the IR variable names; Int lowers to SMT Int, Bool to
/// SMT Bool. Bag-typed terms never reach the solver (the symbolic
/// evaluator eliminates them).
///
/// A long-lived session (one per EquivChecker) checks a stream of
/// independent queries as push(); add(); check(); pop(); and then calls
/// releaseTerms() so the popped queries' terms can be freed.
class SmtSolver {
public:
  SmtSolver();
  ~SmtSolver();

  SmtSolver(const SmtSolver &) = delete;
  SmtSolver &operator=(const SmtSolver &) = delete;

  /// Asserts a Bool-typed IR expression.
  void add(const ir::ExprRef &E);

  void push();
  void pop();

  /// Checks satisfiability of the asserted formulas. \p TimeoutMs == 0
  /// means no limit.
  ///
  /// \p Token makes the check cancellable: a watcher maps the token
  /// firing to Z3_solver_interrupt, so a CEGIS query stuck deep in the
  /// solver returns Cancelled within milliseconds instead of running
  /// out its whole SMT budget. A token deadline additionally clamps the
  /// effective timeout to the remaining budget. The solver survives an
  /// interrupt — the context stays valid and later checks are unharmed
  /// (the interrupted query's verdict is simply discarded).
  SatResult check(unsigned TimeoutMs = 0, CancelToken Token = CancelToken());

  /// Re-checks the current assertions on a fresh, non-incremental Z3
  /// solver over the same context, under the same budget rules as
  /// check(). Z3's incremental core skips the preprocessing tactics, so
  /// it can give up (Unknown) on a query the default pipeline settles;
  /// callers use this as the one retry of such a query. Counts as a
  /// check and, on Sat, provides the model.
  SatResult recheckFresh(unsigned TimeoutMs = 0,
                         CancelToken Token = CancelToken());

  /// Drops the lowering cache together with the IR roots it keeps
  /// alive, so Z3 may free the terms of popped queries. Asserted
  /// formulas stay asserted; later add() calls just lower afresh.
  void releaseTerms();

  /// After a Sat result: the model value of Int variable \p Name
  /// (0 when the model leaves it unconstrained).
  int64_t modelInt(const std::string &Name) const;

  /// After a Sat result: the model value of Bool variable \p Name.
  bool modelBool(const std::string &Name) const;

  /// Number of check() calls performed (statistics for the benches).
  unsigned numChecks() const { return Checks; }

private:
  struct Impl;
  std::unique_ptr<Impl> I;
  unsigned Checks = 0;
};

} // namespace smt
} // namespace grassp

#endif // GRASSP_SMT_SOLVER_H
