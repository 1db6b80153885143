//===- lang/Interp.h - Fold semantics over abstract domains --------------===//
//
// The reference semantics of a SerialProgram: state initialization, one
// simultaneous step, segment folds, and output extraction — all templated
// over the scalar policy of ir/DomainEval.h so the identical code serves
// as the concrete reference interpreter and the symbolic encoder of the
// bounded verifier.
//
//===----------------------------------------------------------------------===//

#ifndef GRASSP_LANG_INTERP_H
#define GRASSP_LANG_INTERP_H

#include "ir/DomainEval.h"
#include "lang/Program.h"

#include <cassert>
#include <string>
#include <vector>

namespace grassp {
namespace lang {

/// A program state in domain S: one DomainValue per field.
template <class S> using StateVec = std::vector<ir::DomainValue<S>>;

/// Builds the initial state d0.
template <class S>
StateVec<S> initialState(const SerialProgram &Prog, S &P) {
  StateVec<S> St;
  St.reserve(Prog.State.size());
  for (const Field &F : Prog.State.fields()) {
    if (F.Ty == ir::TypeKind::Bag) {
      St.push_back(ir::DomainValue<S>::emptyBag());
    } else if (F.Ty == ir::TypeKind::Bool) {
      St.push_back(
          ir::DomainValue<S>::scalar(P.constBool(F.InitInt != 0)));
    } else {
      St.push_back(ir::DomainValue<S>::scalar(P.constInt(F.InitInt)));
    }
  }
  return St;
}

/// Binds state fields (and optionally the input element) into an
/// evaluation environment.
template <class S>
ir::DomainEnv<S> bindState(const StateLayout &Layout, const StateVec<S> &St) {
  assert(Layout.size() == St.size() && "state arity mismatch");
  ir::DomainEnv<S> Env;
  for (size_t I = 0, E = Layout.size(); I != E; ++I)
    Env.emplace(Layout.field(I).Name, St[I]);
  return Env;
}

/// Applies f once: returns the post-state for input element \p In.
template <class S>
StateVec<S> stepState(const SerialProgram &Prog, const StateVec<S> &St,
                      const typename S::Scalar &In, S &P) {
  ir::DomainEnv<S> Env = bindState<S>(Prog.State, St);
  Env.emplace(inputVarName(), ir::DomainValue<S>::scalar(In));
  StateVec<S> Next;
  Next.reserve(Prog.Step.size());
  for (const ir::ExprRef &Upd : Prog.Step)
    Next.push_back(ir::evalExpr(Upd, Env, P));
  return Next;
}

/// fold(f, St, Elements).
template <class S>
StateVec<S> foldSegment(const SerialProgram &Prog, StateVec<S> St,
                        const std::vector<typename S::Scalar> &Elements,
                        S &P) {
  for (const typename S::Scalar &E : Elements)
    St = stepState(Prog, St, E, P);
  return St;
}

/// h(St): the program output for state \p St.
template <class S>
typename S::Scalar outputOf(const SerialProgram &Prog, const StateVec<S> &St,
                            S &P) {
  ir::DomainEnv<S> Env = bindState<S>(Prog.State, St);
  return ir::evalExpr(Prog.Output, Env, P).Sc;
}

//===----------------------------------------------------------------------===//
// Concrete conveniences
//===----------------------------------------------------------------------===//

/// A symbolic state of variables named \p Prefix + field name, typed as
/// the fields.
StateVec<ir::SymbolicPolicy> freshState(const SerialProgram &Prog,
                                        const std::string &Prefix);

/// The scalar terms of a symbolic scalar state, in field order.
std::vector<ir::ExprRef> scalarTerms(const StateVec<ir::SymbolicPolicy> &St);

/// Runs the serial program over a flat element sequence; Bool outputs are
/// reported as 0/1.
int64_t runSerial(const SerialProgram &Prog,
                  const std::vector<int64_t> &Elements);

/// Runs the serial program over consecutive segments (equivalent to the
/// flat run by sequential recurrence decomposition, paper Eq. (1)).
int64_t runSerialSegmented(const SerialProgram &Prog,
                           const std::vector<std::vector<int64_t>> &Segments);

} // namespace lang
} // namespace grassp

#endif // GRASSP_LANG_INTERP_H
