#ifndef TECORE_MINE_MINER_H_
#define TECORE_MINE_MINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rdf/graph.h"
#include "rules/ast.h"

namespace tecore {
namespace mine {

/// \brief Pattern-based temporal constraint mining (ROADMAP direction 5).
///
/// TeCoRe resolves conflicts against *given* rules; PaTeCon showed the
/// rules themselves can be discovered from the graph by enumerating a
/// small family of temporal patterns and scoring each candidate by how
/// often the data satisfies it. This module mines the paper's three
/// constraint families directly over the chunked columnar
/// `rdf::TemporalGraph` of a frozen snapshot:
///
///  * **disjointness** (c2 family): same subject, same predicate,
///    different objects should not overlap in time
///    (`disjoint_P: quad(x,P,y,t) & quad(x,P,z,t') & y != z
///    -> disjoint(t, t')`);
///  * **functionality under overlap** (c3 family): temporally overlapping
///    same-predicate facts should agree on the object
///    (`functional_P: ... [intersects(t, t')] -> y = z`);
///  * **begin-precedence** (c1 family): for a predicate pair (P, Q) on
///    shared subjects, the first P interval should begin before the first
///    Q interval (`precede_P_Q: ... -> begin(t) < begin(t')`).
///
/// Survivors are emitted as ordinary `rules::Rule`s in the `.tcr` DSL, so
/// the parser, grounder and both solvers consume them unchanged.
///
/// Determinism contract: the mined rule list — and the canonical text
/// `WriteMinedRulesText` renders — is a pure function of graph *content*
/// and options. All counters are exact integers, and candidates are
/// assembled and ranked in a canonical order. `Mine` runs on the calling
/// thread.

/// \brief Mining thresholds.
struct MiningOptions {
  /// Minimum satisfying instances before a candidate is emitted.
  size_t min_support = 10;
  /// Emit only candidates holding on at least this fraction of their
  /// instances. The default is tuned for noisy UTKGs ("as many erroneous
  /// facts as correct ones", the paper's FootballDB setting): a constraint
  /// violated by a third of the pairs is exactly the kind the resolver
  /// needs, not a reason to discard the pattern.
  double min_confidence = 0.6;
  /// Cap on emitted rules (strongest evidence first; the report counts
  /// what the cap dropped).
  size_t max_patterns = 64;
  /// Cap on ordered (P, Q) predicate pairs examined for precedence.
  size_t max_predicate_pairs = 256;
  /// Per-(subject, predicate) bucket cap for the quadratic pair scan;
  /// larger buckets are profiled for precedence but skip pair counting
  /// (the report counts them — no silent truncation).
  size_t max_bucket_facts = 512;
};

/// \brief Which pattern family produced a mined rule.
enum class PatternKind : uint8_t {
  kDisjointness,
  kFunctional,
  kPrecedence,
};

/// \brief Canonical lower-case name ("disjointness" | "functional" |
/// "precedence").
const char* PatternKindName(PatternKind kind);

/// \brief One mined constraint with its evidence.
struct MinedRule {
  rules::Rule rule;
  PatternKind kind = PatternKind::kDisjointness;
  /// Lexical predicate (disjointness/functional) or the pair's first
  /// predicate (precedence).
  std::string predicate;
  /// The pair's second predicate; empty for per-predicate patterns.
  std::string second_predicate;
  /// Instances satisfying the constraint (diff-object pairs that do not
  /// overlap; overlapping pairs that agree; subjects whose first P begins
  /// before their first Q).
  size_t support = 0;
  /// Instances violating it.
  size_t violations = 0;
  /// support / (support + violations).
  double confidence = 0.0;
  /// Confidence mass of the violating instances (exact sum of
  /// min(conf_a, conf_b) per violating pair): roughly "how much extracted
  /// probability the resolver would have to arbitrate".
  double violation_mass = 0.0;
};

/// \brief Mining outcome: the ranked rules plus exact work counters.
///
/// `rules` is sorted by support descending (strongest evidence first),
/// ties by rule name ascending — the canonical order `WriteMinedRulesText`
/// emits.
struct MiningReport {
  std::vector<MinedRule> rules;

  // ---- exact counters (never sampled, never silently capped).
  /// Predicates profiled for per-predicate patterns.
  size_t predicates_profiled = 0;
  /// Predicates skipped because their lexical form cannot appear in the
  /// rule language (would not re-parse: variables, operators, …).
  size_t predicates_skipped = 0;
  /// Ordered predicate pairs examined for precedence.
  size_t pairs_examined = 0;
  /// Ordered predicate pairs dropped by `max_predicate_pairs`.
  size_t pairs_dropped = 0;
  /// Candidates that met their pattern's structural requirements.
  size_t patterns_considered = 0;
  /// Candidates dropped by `max_patterns` after ranking.
  size_t patterns_dropped = 0;
  /// (subject, predicate) buckets larger than `max_bucket_facts`, which
  /// skipped the quadratic pair scan.
  size_t truncated_buckets = 0;
  /// Wall-clock mining time (measurement; not part of canonical output).
  double mine_time_ms = 0.0;

  /// \brief The mined rules as an ordinary rule set (canonical order),
  /// ready for Engine::AddRules / grounding / solving.
  rules::RuleSet ToRuleSet() const;
};

/// \brief The mining pass. Stateless apart from options; `Mine` is safe
/// to call concurrently on frozen graphs.
class Miner {
 public:
  Miner() = default;
  explicit Miner(MiningOptions options) : options_(options) {}

  const MiningOptions& options() const { return options_; }

  /// \brief Mine constraints from `graph`. Read-only: index reads only, no
  /// interning and no mutation.
  MiningReport Mine(const rdf::TemporalGraph& graph) const;

 private:
  MiningOptions options_;
};

/// \brief True when `name` can be written verbatim as a predicate and
/// rule-name fragment in the `.tcr` DSL and re-parse as the same IRI
/// constant (not a variable, no operator characters).
bool IsSafeRulePredicate(const std::string& name);

/// \brief Render the mined rules as a canonical `.tcr` document:
/// a provenance header plus one `#`-comment line of evidence per rule,
/// followed by the rule itself. The parser skips the comments, so the
/// document round-trips through `rules::ParseRules` to exactly
/// `report.ToRuleSet()` (and re-emits bit-identically via
/// `rules::WriteRulesText`). Contains no timestamps, paths or other
/// run-dependent state.
std::string WriteMinedRulesText(const MiningReport& report,
                                const MiningOptions& options);

}  // namespace mine
}  // namespace tecore

#endif  // TECORE_MINE_MINER_H_
