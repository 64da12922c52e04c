#include "core/edits.h"

#include <cstdint>
#include <unordered_map>

#include "rdf/io.h"
#include "util/string_util.h"

namespace tecore {
namespace core {

Result<std::vector<GraphEdit>> ParseEditScript(std::string_view text,
                                               rdf::TemporalGraph* graph) {
  std::vector<GraphEdit> edits;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view raw = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    std::string_view line = Trim(rdf::StripTqComment(raw));
    if (line.empty()) continue;
    GraphEdit edit;
    if (line.front() == '+') {
      edit.kind = GraphEdit::Kind::kInsert;
    } else if (line.front() == '-') {
      edit.kind = GraphEdit::Kind::kRetract;
    } else {
      return Status::ParseError(StringPrintf(
          "line %zu: edit lines start with '+' (insert) or '-' (retract), "
          "got: '%s'",
          line_no, std::string(line).c_str()));
    }
    Result<rdf::TemporalFact> fact =
        rdf::ParseFactText(Trim(line.substr(1)), graph);
    if (!fact.ok()) {
      return Status::ParseError(StringPrintf("line %zu: ", line_no) +
                                fact.status().message());
    }
    edit.fact = *fact;
    edits.push_back(edit);
  }
  return edits;
}

namespace {

struct QuadKey {
  rdf::TermId s, p, o;
  int64_t b, e;
  bool operator==(const QuadKey& other) const {
    return s == other.s && p == other.p && o == other.o && b == other.b &&
           e == other.e;
  }
};
struct QuadKeyHash {
  size_t operator()(const QuadKey& k) const {
    uint64_t h = 1469598103934665603ULL;
    for (uint64_t v : {static_cast<uint64_t>(k.s), static_cast<uint64_t>(k.p),
                       static_cast<uint64_t>(k.o), static_cast<uint64_t>(k.b),
                       static_cast<uint64_t>(k.e)}) {
      h = (h ^ v) * 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
};

QuadKey KeyOf(const rdf::TemporalFact& fact) {
  return QuadKey{fact.subject, fact.predicate, fact.object,
                 fact.interval.begin(), fact.interval.end()};
}

size_t CountLiveMatches(const rdf::TemporalGraph& graph,
                        const rdf::TemporalFact& fact) {
  size_t count = 0;
  for (rdf::FactId id :
       graph.FactsWithSubjectPredicate(fact.subject, fact.predicate)) {
    const rdf::TemporalFact& f = graph.fact(id);
    if (f.object == fact.object && f.interval == fact.interval &&
        graph.is_live(id)) {
      ++count;
    }
  }
  return count;
}

}  // namespace

Status ValidateGraphEdits(const std::vector<GraphEdit>& edits,
                          const rdf::TemporalGraph& graph) {
  // Simulate the batch without touching the graph, tracking the live
  // count of every quad the batch mentions with the exact semantics
  // ApplyGraphEdits uses: inserts add one copy, a retraction removes
  // *all* live copies and fails on zero.
  std::unordered_map<QuadKey, size_t, QuadKeyHash> live;
  for (const GraphEdit& edit : edits) {
    auto [it, fresh] = live.try_emplace(KeyOf(edit.fact), 0);
    if (fresh) it->second = CountLiveMatches(graph, edit.fact);
    if (edit.kind == GraphEdit::Kind::kInsert) {
      if (edit.fact.confidence <= 0.0 || edit.fact.confidence > 1.0) {
        return Status::InvalidArgument(
            "insert confidence must be in (0,1]: " +
            graph.FactToString(edit.fact));
      }
      ++it->second;
    } else if (it->second == 0) {
      return Status::InvalidArgument("retraction matches no live fact: " +
                                     graph.FactToString(edit.fact));
    } else {
      it->second = 0;
    }
  }
  return Status::OK();
}

Result<EditApplication> ApplyGraphEdits(const std::vector<GraphEdit>& edits,
                                        rdf::TemporalGraph* graph) {
  // Validate the whole batch before touching the graph, so a failing
  // script leaves no half-applied state behind.
  TECORE_RETURN_NOT_OK(ValidateGraphEdits(edits, *graph));

  EditApplication applied;
  for (const GraphEdit& edit : edits) {
    if (edit.kind == GraphEdit::Kind::kInsert) {
      TECORE_RETURN_NOT_OK(graph->Add(edit.fact).status());
      ++applied.inserted;
      continue;
    }
    // Retract every live fact matching (s, p, o, interval).
    std::vector<rdf::FactId> matches;
    for (rdf::FactId id : graph->FactsWithSubjectPredicate(
             edit.fact.subject, edit.fact.predicate)) {
      const rdf::TemporalFact& f = graph->fact(id);
      if (f.object == edit.fact.object && f.interval == edit.fact.interval &&
          graph->is_live(id)) {
        matches.push_back(id);
      }
    }
    for (rdf::FactId id : matches) {
      TECORE_RETURN_NOT_OK(graph->Retract(id));
      ++applied.retracted;
    }
  }
  return applied;
}

std::string EditScriptToText(const std::vector<GraphEdit>& edits,
                             const rdf::TemporalGraph& graph) {
  std::string out;
  for (const GraphEdit& edit : edits) {
    out += edit.kind == GraphEdit::Kind::kInsert ? "+ " : "- ";
    out += rdf::WriteFactText(graph, edit.fact);
    out += " .\n";
  }
  return out;
}

}  // namespace core
}  // namespace tecore
