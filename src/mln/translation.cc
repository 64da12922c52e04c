#include "mln/translation.h"

namespace tecore {
namespace mln {

namespace {

/// Append `clause` to `wcnf`, mapping each atom to a variable via `var_of`.
template <typename VarOf>
void AppendClause(const ground::GroundClause& clause, VarOf var_of,
                  maxsat::Wcnf* wcnf) {
  std::vector<maxsat::Literal> lits;
  lits.reserve(clause.literals.size());
  for (int32_t lit : clause.literals) {
    const int var = var_of(ground::LiteralAtom(lit));
    lits.push_back(ground::LiteralSign(lit) ? maxsat::PosLit(var)
                                            : maxsat::NegLit(var));
  }
  if (clause.hard) {
    wcnf->AddHard(std::move(lits));
  } else if (clause.weight > 0) {
    wcnf->AddSoft(std::move(lits), clause.weight);
  }
}

}  // namespace

maxsat::Wcnf BuildWcnf(const ground::GroundNetwork& network) {
  maxsat::Wcnf wcnf(static_cast<int>(network.NumAtoms()));
  for (const ground::GroundClause& clause : network.clauses()) {
    AppendClause(
        clause, [](ground::AtomId atom) { return static_cast<int>(atom); },
        &wcnf);
  }
  return wcnf;
}

maxsat::Wcnf BuildComponentWcnf(const ground::GroundNetwork& network,
                                ground::IdSpan<ground::AtomId> atoms,
                                ground::IdSpan<uint32_t> clauses) {
  maxsat::Wcnf wcnf(static_cast<int>(atoms.size()));
  for (uint32_t ci : clauses) {
    AppendClause(
        network.clauses()[ci],
        [atoms](ground::AtomId atom) {
          return static_cast<int>(ground::LocalAtomIndex(atoms, atom));
        },
        &wcnf);
  }
  return wcnf;
}

ilp::IlpProblem BuildIlp(const maxsat::Wcnf& wcnf,
                         const std::vector<bool>& include_clause) {
  ilp::IlpProblem problem;
  for (int v = 0; v < wcnf.num_vars(); ++v) {
    problem.AddVar(0.0);
  }
  for (size_t ci = 0; ci < wcnf.NumClauses(); ++ci) {
    if (!include_clause.empty() && !include_clause[ci]) continue;
    const maxsat::WClause& clause = wcnf.clause(ci);
    if (!clause.hard && clause.lits.size() == 1) {
      // Unit soft clause folds into the objective.
      const maxsat::Literal lit = clause.lits[0];
      const int var = maxsat::LitVar(lit);
      problem.objective[static_cast<size_t>(var)] +=
          maxsat::LitSign(lit) ? clause.weight : -clause.weight;
      // (the constant term for negative literals is dropped; objective
      // values are compared, not absolute)
      continue;
    }
    ilp::LinearRow row;
    double constant = 0.0;
    for (maxsat::Literal lit : clause.lits) {
      const int var = maxsat::LitVar(lit);
      if (maxsat::LitSign(lit)) {
        row.coefs.emplace_back(var, 1.0);
      } else {
        row.coefs.emplace_back(var, -1.0);
        constant += 1.0;
      }
    }
    row.op = ilp::RowOp::kGe;
    if (clause.hard) {
      row.rhs = 1.0 - constant;
      problem.AddRow(std::move(row));
    } else {
      const int z = problem.AddVar(clause.weight);
      row.coefs.emplace_back(z, -1.0);
      row.rhs = 0.0 - constant;
      problem.AddRow(std::move(row));
    }
  }
  return problem;
}

}  // namespace mln
}  // namespace tecore
