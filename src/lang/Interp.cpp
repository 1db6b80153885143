//===- lang/Interp.cpp -----------------------------------------------------=//

#include "lang/Interp.h"

namespace grassp {
namespace lang {

StateVec<ir::SymbolicPolicy> freshState(const SerialProgram &Prog,
                                        const std::string &Prefix) {
  StateVec<ir::SymbolicPolicy> St;
  for (const Field &F : Prog.State.fields())
    St.push_back(ir::DomainValue<ir::SymbolicPolicy>::scalar(
        ir::var(Prefix + F.Name, F.Ty)));
  return St;
}

std::vector<ir::ExprRef> scalarTerms(const StateVec<ir::SymbolicPolicy> &St) {
  std::vector<ir::ExprRef> Out;
  Out.reserve(St.size());
  for (const ir::DomainValue<ir::SymbolicPolicy> &V : St)
    Out.push_back(V.Sc);
  return Out;
}

int64_t runSerial(const SerialProgram &Prog,
                  const std::vector<int64_t> &Elements) {
  ir::ConcretePolicy P;
  StateVec<ir::ConcretePolicy> St = initialState(Prog, P);
  St = foldSegment(Prog, std::move(St), Elements, P);
  return outputOf(Prog, St, P);
}

int64_t runSerialSegmented(const SerialProgram &Prog,
                           const std::vector<std::vector<int64_t>> &Segments) {
  ir::ConcretePolicy P;
  StateVec<ir::ConcretePolicy> St = initialState(Prog, P);
  for (const std::vector<int64_t> &Seg : Segments)
    St = foldSegment(Prog, std::move(St), Seg, P);
  return outputOf(Prog, St, P);
}

} // namespace lang
} // namespace grassp
