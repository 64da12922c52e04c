#include "mine/miner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <tuple>
#include <unordered_set>

#include "obs/metrics.h"
#include "rules/library.h"
#include "rules/parser.h"
#include "util/exact_sum.h"
#include "util/string_util.h"

namespace tecore {
namespace mine {

namespace {

/// Soft-weight clamp: log-odds of a confidence pinned away from 0/1 so
/// mined weights stay finite and comparable to the hand-written sets.
constexpr double kMinClampedConfidence = 0.05;
constexpr double kMaxClampedConfidence = 0.95;

/// Evidence counters of one candidate before thresholding.
struct Candidate {
  PatternKind kind = PatternKind::kDisjointness;
  std::string predicate;
  std::string second_predicate;
  uint64_t support = 0;
  uint64_t violations = 0;
  double violation_mass = 0.0;
};

/// Per-predicate pair statistics plus the per-subject first-interval
/// profile the precedence pass intersects. One per predicate task.
struct PredicateProfile {
  uint64_t disjoint_support = 0;
  uint64_t disjoint_violations = 0;
  double disjoint_violation_mass = 0.0;
  uint64_t functional_support = 0;
  uint64_t functional_violations = 0;
  double functional_violation_mass = 0.0;
  uint64_t truncated_buckets = 0;
  /// (subject, earliest interval begin, confidence of that earliest fact),
  /// sorted by subject id for the pairwise sorted-merge. Ties on `begin`
  /// keep the smallest confidence so the chosen value is a function of the
  /// bucket's *content*, not of fact enumeration order.
  std::vector<std::tuple<rdf::TermId, int64_t, double>> first_begin;
};

/// Outcome of one ordered-pair precedence task.
struct PairProfile {
  uint64_t support = 0;
  uint64_t violations = 0;
  double violation_mass = 0.0;
};

/// Allen relation names plus the grammar's function-like identifiers: a
/// predicate spelled like one of these could change meaning at certain
/// syntactic positions, so the miner refuses to quote it (counted, never
/// silent).
bool IsReservedWord(const std::string& name) {
  static const char* kReserved[] = {
      "quad",     "false",    "inf",      "infinity", "w",
      "before",   "after",    "meets",    "overlaps", "starts",
      "during",   "finishes", "equals",   "disjoint", "intersects",
      "intersect", "hull",    "begin",    "end",      "duration",
  };
  for (const char* word : kReserved) {
    if (name == word) return true;
  }
  return false;
}

/// True for identifiers the rule lexer reads back as a *variable*: a
/// single lowercase letter optionally followed by digits and primes
/// (x, t', p2, …).
bool LooksLikeRuleVariable(const std::string& name) {
  if (name.empty() || name[0] < 'a' || name[0] > 'z') return false;
  for (size_t i = 1; i < name.size(); ++i) {
    const char c = name[i];
    if (!(c >= '0' && c <= '9') && c != '\'') return false;
  }
  return true;
}

double Confidence(uint64_t support, uint64_t violations) {
  const uint64_t total = support + violations;
  if (total == 0) return 0.0;
  return static_cast<double>(support) / static_cast<double>(total);
}

/// Turn evidence into the rule's weight: perfectly-held patterns become
/// hard constraints; violated ones get the log-odds of their confidence
/// as a soft weight (same scale the hand-written sets use).
void ApplyWeight(const Candidate& candidate, rules::Rule* rule) {
  if (candidate.violations == 0) {
    rule->hard = true;
    rule->weight = 0.0;
    return;
  }
  const double clamped =
      std::min(kMaxClampedConfidence,
               std::max(kMinClampedConfidence,
                        Confidence(candidate.support, candidate.violations)));
  rule->hard = false;
  rule->weight = std::log(clamped / (1.0 - clamped));
}

/// Build the rule of one surviving candidate. Every shape goes through
/// the rule parser (directly or via the library builders), so the result
/// is exactly what a user could type — the round-trip guarantee is by
/// construction.
Result<rules::Rule> BuildRule(const Candidate& candidate) {
  switch (candidate.kind) {
    case PatternKind::kDisjointness:
      return rules::MakeTemporalDisjointness(candidate.predicate);
    case PatternKind::kFunctional:
      return rules::MakeFunctionalDuringOverlap(candidate.predicate);
    case PatternKind::kPrecedence:
      // Begin-precedence, not Allen `before`: long-lived first intervals
      // (a birthDate valid from birth onwards) overlap every later one,
      // so strict before() would never hold on real data.
      return rules::ParseSingleRule(StringPrintf(
          "precede_%s_%s: quad(x, %s, y, t) & quad(x, %s, z, t') "
          "-> begin(t) < begin(t') .",
          candidate.predicate.c_str(), candidate.second_predicate.c_str(),
          candidate.predicate.c_str(), candidate.second_predicate.c_str()));
  }
  return Status::Internal("unreachable pattern kind");
}

}  // namespace

const char* PatternKindName(PatternKind kind) {
  switch (kind) {
    case PatternKind::kDisjointness:
      return "disjointness";
    case PatternKind::kFunctional:
      return "functional";
    case PatternKind::kPrecedence:
      return "precedence";
  }
  return "unknown";
}

bool IsSafeRulePredicate(const std::string& name) {
  if (name.empty()) return false;
  const char first = name[0];
  const bool alpha_first = (first >= 'a' && first <= 'z') ||
                           (first >= 'A' && first <= 'Z') || first == '_';
  if (!alpha_first) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return !LooksLikeRuleVariable(name) && !IsReservedWord(name);
}

rules::RuleSet MiningReport::ToRuleSet() const {
  rules::RuleSet out;
  out.rules.reserve(rules.size());
  for (const MinedRule& mined : rules) out.rules.push_back(mined.rule);
  return out;
}

MiningReport Miner::Mine(const rdf::TemporalGraph& graph) const {
  const auto start = std::chrono::steady_clock::now();
  static const auto stage_hist = obs::StageHistogram("mine");
  obs::ScopedTimer stage_timer(stage_hist);
  MiningReport report;

  // ---- canonical task list: live predicates in (count desc, lexical)
  // order — PredicateCounts' order, which is a pure function of content.
  struct PredicateTask {
    rdf::TermId id;
    std::string name;
  };
  std::vector<PredicateTask> preds;
  for (const auto& [pred, count] : graph.PredicateCounts()) {
    if (count == 0) continue;  // every fact of this predicate retracted
    std::string name = graph.dict().Lookup(pred).lexical();
    if (!IsSafeRulePredicate(name)) {
      ++report.predicates_skipped;
      continue;
    }
    preds.push_back({pred, std::move(name)});
  }
  report.predicates_profiled = preds.size();

  // ---- stage 1: per-predicate profiles, one pre-sized slot per task.
  std::vector<PredicateProfile> profiles(preds.size());
  for (size_t pi = 0; pi < preds.size(); ++pi) {
    const PredicateTask& task = preds[pi];
    PredicateProfile& prof = profiles[pi];
    util::ExactSum disjoint_mass;
    util::ExactSum functional_mass;
    std::unordered_set<rdf::TermId> seen_subjects;
    for (rdf::FactId id : graph.FactsWithPredicate(task.id)) {
      const rdf::TemporalFact& fact = graph.fact(id);
      if (!seen_subjects.insert(fact.subject).second) continue;
      const std::vector<rdf::FactId> bucket =
          graph.FactsWithSubjectPredicate(fact.subject, task.id);
      int64_t best_begin = 0;
      double best_conf = 0.0;
      bool have_best = false;
      for (rdf::FactId fid : bucket) {
        const rdf::TemporalFact& f = graph.fact(fid);
        const int64_t b = f.interval.begin();
        if (!have_best || b < best_begin ||
            (b == best_begin && f.confidence < best_conf)) {
          best_begin = b;
          best_conf = f.confidence;
          have_best = true;
        }
      }
      prof.first_begin.emplace_back(fact.subject, best_begin, best_conf);
      if (bucket.size() > options_.max_bucket_facts) {
        ++prof.truncated_buckets;  // skip the quadratic scan, keep count
        continue;
      }
      for (size_t i = 0; i < bucket.size(); ++i) {
        const rdf::TemporalFact& a = graph.fact(bucket[i]);
        for (size_t j = i + 1; j < bucket.size(); ++j) {
          const rdf::TemporalFact& b = graph.fact(bucket[j]);
          const bool overlap = a.interval.Intersects(b.interval);
          const bool same_object = a.object == b.object;
          const double mass = std::min(a.confidence, b.confidence);
          if (!same_object) {
            if (overlap) {
              ++prof.disjoint_violations;
              disjoint_mass.Add(mass);
            } else {
              ++prof.disjoint_support;
            }
          }
          if (overlap) {
            if (same_object) {
              ++prof.functional_support;
            } else {
              ++prof.functional_violations;
              functional_mass.Add(mass);
            }
          }
        }
      }
    }
    // Sorted by subject id for the precedence merge; ids are stable within
    // this graph, and everything derived from the order is a count.
    std::sort(prof.first_begin.begin(), prof.first_begin.end());
    prof.disjoint_violation_mass = disjoint_mass.ToDouble();
    prof.functional_violation_mass = functional_mass.ToDouble();
    report.truncated_buckets += prof.truncated_buckets;
  }

  // ---- stage 2: ordered predicate pairs for begin-precedence, capped at
  // max_predicate_pairs in canonical enumeration order (the cap is
  // reported, and the order it truncates in is content-deterministic).
  struct PairTask {
    size_t first;
    size_t second;
  };
  std::vector<PairTask> pair_tasks;
  for (size_t pi = 0; pi < preds.size(); ++pi) {
    for (size_t qi = 0; qi < preds.size(); ++qi) {
      if (pi == qi) continue;
      if (pair_tasks.size() < options_.max_predicate_pairs) {
        pair_tasks.push_back({pi, qi});
      } else {
        ++report.pairs_dropped;
      }
    }
  }
  report.pairs_examined = pair_tasks.size();

  std::vector<PairProfile> pair_profiles(pair_tasks.size());
  for (size_t ti = 0; ti < pair_tasks.size(); ++ti) {
    const std::vector<std::tuple<rdf::TermId, int64_t, double>>& first =
        profiles[pair_tasks[ti].first].first_begin;
    const std::vector<std::tuple<rdf::TermId, int64_t, double>>& second =
        profiles[pair_tasks[ti].second].first_begin;
    PairProfile& prof = pair_profiles[ti];
    util::ExactSum mass;
    size_t i = 0, j = 0;
    while (i < first.size() && j < second.size()) {
      const rdf::TermId si = std::get<0>(first[i]);
      const rdf::TermId sj = std::get<0>(second[j]);
      if (si < sj) {
        ++i;
      } else if (sj < si) {
        ++j;
      } else {
        // One evidence unit per shared subject ("this subject's first P
        // begins before its first Q"), so a subject with many facts does
        // not multiply its vote the way pair counting would.
        if (std::get<1>(first[i]) < std::get<1>(second[j])) {
          ++prof.support;
        } else {
          ++prof.violations;
          mass.Add(std::min(std::get<2>(first[i]), std::get<2>(second[j])));
        }
        ++i;
        ++j;
      }
    }
    prof.violation_mass = mass.ToDouble();
  }

  // ---- assemble candidates in canonical order and threshold them.
  std::vector<Candidate> candidates;
  for (size_t pi = 0; pi < preds.size(); ++pi) {
    const PredicateProfile& prof = profiles[pi];
    if (prof.disjoint_support + prof.disjoint_violations > 0) {
      ++report.patterns_considered;
      Candidate c;
      c.kind = PatternKind::kDisjointness;
      c.predicate = preds[pi].name;
      c.support = prof.disjoint_support;
      c.violations = prof.disjoint_violations;
      c.violation_mass = prof.disjoint_violation_mass;
      candidates.push_back(std::move(c));
    }
    if (prof.functional_support + prof.functional_violations > 0) {
      ++report.patterns_considered;
      Candidate c;
      c.kind = PatternKind::kFunctional;
      c.predicate = preds[pi].name;
      c.support = prof.functional_support;
      c.violations = prof.functional_violations;
      c.violation_mass = prof.functional_violation_mass;
      candidates.push_back(std::move(c));
    }
  }
  for (size_t ti = 0; ti < pair_tasks.size(); ++ti) {
    const PairProfile& prof = pair_profiles[ti];
    if (prof.support + prof.violations == 0) continue;
    ++report.patterns_considered;
    Candidate c;
    c.kind = PatternKind::kPrecedence;
    c.predicate = preds[pair_tasks[ti].first].name;
    c.second_predicate = preds[pair_tasks[ti].second].name;
    c.support = prof.support;
    c.violations = prof.violations;
    c.violation_mass = prof.violation_mass;
    candidates.push_back(std::move(c));
  }

  for (Candidate& candidate : candidates) {
    if (candidate.support < options_.min_support) continue;
    const double confidence =
        Confidence(candidate.support, candidate.violations);
    if (confidence < options_.min_confidence) continue;
    Result<rules::Rule> rule = BuildRule(candidate);
    if (!rule.ok()) continue;  // unreachable for safe predicates
    ApplyWeight(candidate, &*rule);
    MinedRule mined;
    mined.rule = std::move(*rule);
    mined.kind = candidate.kind;
    mined.predicate = std::move(candidate.predicate);
    mined.second_predicate = std::move(candidate.second_predicate);
    mined.support = candidate.support;
    mined.violations = candidate.violations;
    mined.confidence = confidence;
    mined.violation_mass = candidate.violation_mass;
    report.rules.push_back(std::move(mined));
  }

  // Strongest evidence first; name breaks ties (names are unique per
  // pattern instance, so the order is total and canonical).
  std::sort(report.rules.begin(), report.rules.end(),
            [](const MinedRule& a, const MinedRule& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.rule.name < b.rule.name;
            });
  if (report.rules.size() > options_.max_patterns) {
    report.patterns_dropped = report.rules.size() - options_.max_patterns;
    report.rules.resize(options_.max_patterns);
  }

  report.mine_time_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

std::string WriteMinedRulesText(const MiningReport& report,
                                const MiningOptions& options) {
  std::string out;
  out += "# mined temporal constraints (tecore mine; docs/mining.md)\n";
  out += StringPrintf(
      "# options: min_support=%zu min_confidence=%s max_patterns=%zu "
      "max_predicate_pairs=%zu max_bucket_facts=%zu\n",
      options.min_support, FormatDoubleExact(options.min_confidence).c_str(),
      options.max_patterns, options.max_predicate_pairs,
      options.max_bucket_facts);
  out += StringPrintf(
      "# profiled: predicates=%zu skipped=%zu pairs=%zu pairs_dropped=%zu "
      "truncated_buckets=%zu\n",
      report.predicates_profiled, report.predicates_skipped,
      report.pairs_examined, report.pairs_dropped, report.truncated_buckets);
  out += StringPrintf("# candidates: considered=%zu emitted=%zu dropped=%zu\n",
                      report.patterns_considered, report.rules.size(),
                      report.patterns_dropped);
  for (const MinedRule& mined : report.rules) {
    out += StringPrintf(
        "# %s %s: support=%llu violations=%llu confidence=%s "
        "violation_mass=%s\n",
        PatternKindName(mined.kind), mined.rule.name.c_str(),
        static_cast<unsigned long long>(mined.support),
        static_cast<unsigned long long>(mined.violations),
        FormatDoubleExact(mined.confidence).c_str(),
        FormatDoubleExact(mined.violation_mass).c_str());
    out += mined.rule.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace mine
}  // namespace tecore
