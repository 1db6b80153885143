//===- chc/Certify.cpp -----------------------------------------------------=//

#include "chc/Certify.h"

#include "smt/Z3Lower.h"
#include "support/Timing.h"

using namespace grassp::ir;

namespace grassp {
namespace chc {

const char *certStatusName(CertStatus S) {
  switch (S) {
  case CertStatus::Certified:
    return "certified";
  case CertStatus::NotCertified:
    return "not-certified";
  case CertStatus::Unknown:
    return "unknown";
  case CertStatus::Unsupported:
    return "unsupported";
  }
  return "?";
}

namespace {

/// Builds the fixedpoint session: registers inv and err, adds the fact,
/// transition rule, and error rule. Returns the err relation to query.
z3::func_decl buildFixedpoint(z3::context &Ctx, z3::fixedpoint &Fp,
                              const ChcSystem &Sys) {
  smt::Z3Lowerer L(Ctx);

  z3::sort_vector Sorts(Ctx);
  for (const ChcVar &V : Sys.Vars)
    Sorts.push_back(V.Ty == TypeKind::Bool ? Ctx.bool_sort()
                                           : Ctx.int_sort());
  z3::func_decl Inv = Ctx.function("inv", Sorts, Ctx.bool_sort());
  z3::func_decl Err = Ctx.function("err", 0, nullptr, Ctx.bool_sort());
  Fp.register_relation(Inv);
  Fp.register_relation(Err);

  z3::expr_vector Cur(Ctx), Init(Ctx), Nxt(Ctx);
  for (const ChcVar &V : Sys.Vars) {
    Cur.push_back(V.Ty == TypeKind::Bool ? Ctx.bool_const(V.Name.c_str())
                                         : Ctx.int_const(V.Name.c_str()));
    Init.push_back(L.lower(V.Init));
  }
  for (const ExprRef &N : Sys.Next)
    Nxt.push_back(L.lower(N));

  // Fact.
  z3::expr Fact = Inv(Init);
  Fp.add_rule(Fact, Ctx.str_symbol("init"));

  // Transition rule.
  z3::expr_vector Bound(Ctx);
  for (unsigned I = 0; I != Cur.size(); ++I)
    Bound.push_back(Cur[I]);
  Bound.push_back(Ctx.int_const("el"));
  Bound.push_back(Ctx.int_const("s_id_next"));
  z3::expr TransBody = Inv(Cur) && L.lower(Sys.TransGuard);
  z3::expr Step = z3::forall(Bound, z3::implies(TransBody, Inv(Nxt)));
  Fp.add_rule(Step, Ctx.str_symbol("step"));

  // Error rule.
  z3::expr BadBody = Inv(Cur) && L.lower(Sys.QueryGuard) &&
                     (L.lower(Sys.SerialOut) != L.lower(Sys.ParallelOut));
  z3::expr_vector Bound2(Ctx);
  for (unsigned I = 0; I != Cur.size(); ++I)
    Bound2.push_back(Cur[I]);
  z3::expr Bad = z3::forall(Bound2, z3::implies(BadBody, Err()));
  Fp.add_rule(Bad, Ctx.str_symbol("bad"));
  return Err;
}

} // namespace

CertifyOutcome certify(const lang::SerialProgram &Prog,
                       const synth::ParallelPlan &Plan,
                       const CertifyOptions &Opts) {
  CertifyOutcome Out;
  Stopwatch Timer;
  std::optional<ChcSystem> Sys =
      encodeProductAutomaton(Prog, Plan, Opts.NumSegments);
  if (!Sys) {
    Out.Status = CertStatus::Unsupported;
    return Out;
  }
  Out.NumVars = static_cast<unsigned>(Sys->Vars.size());

  try {
    z3::context Ctx;
    z3::fixedpoint Fp(Ctx);
    z3::params P(Ctx);
    P.set("timeout", Opts.TimeoutMs);
    P.set("engine", Ctx.str_symbol("spacer"));
    Fp.set(P);
    z3::func_decl Err = buildFixedpoint(Ctx, Fp, *Sys);
    z3::func_decl_vector Queries(Ctx);
    Queries.push_back(Err);

    switch (Fp.query(Queries)) {
    case z3::unsat:
      Out.Status = CertStatus::Certified;
      if (Opts.WantInvariant)
        Out.Invariant = Fp.get_answer().to_string();
      break;
    case z3::sat:
      Out.Status = CertStatus::NotCertified;
      break;
    case z3::unknown:
      Out.Status = CertStatus::Unknown;
      break;
    }
  } catch (const z3::exception &) {
    Out.Status = CertStatus::Unknown;
  }
  Out.Seconds = Timer.seconds();
  return Out;
}

std::string chcToSmtlib(const lang::SerialProgram &Prog,
                        const synth::ParallelPlan &Plan,
                        unsigned NumSegments) {
  std::optional<ChcSystem> Sys =
      encodeProductAutomaton(Prog, Plan, NumSegments);
  if (!Sys)
    return "";
  try {
    z3::context Ctx;
    z3::fixedpoint Fp(Ctx);
    buildFixedpoint(Ctx, Fp, *Sys);
    return Fp.to_string();
  } catch (const z3::exception &E) {
    return std::string("; error: ") + E.msg();
  }
}

} // namespace chc
} // namespace grassp
