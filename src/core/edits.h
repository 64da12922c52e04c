#ifndef TECORE_CORE_EDITS_H_
#define TECORE_CORE_EDITS_H_

#include <string>
#include <vector>

#include "rdf/graph.h"
#include "util/status.h"

namespace tecore {
namespace core {

/// \brief One knowledge-graph edit. Term ids reference the dictionary of
/// the graph the edit targets.
struct GraphEdit {
  enum class Kind : uint8_t {
    kInsert,   ///< Append the fact.
    kRetract,  ///< Tombstone every live fact matching (s, p, o, interval).
  };
  Kind kind = Kind::kInsert;
  rdf::TemporalFact fact;
};

/// \brief Outcome of applying an edit batch to a graph.
struct EditApplication {
  size_t inserted = 0;
  size_t retracted = 0;
};

/// \brief Parse an edit script: one edit per line, a `+` (insert) or `-`
/// (retract) prefix followed by a ".tq" fact —
///
///     + CR coach Fiorentina [1993,1997] 0.8 .
///     - CR coach Napoli [2001,2003] .
///
/// Comments (`#`) and blank lines follow ".tq" rules. Retractions match on
/// (subject, predicate, object, interval); a confidence on a `-` line is
/// ignored. Terms are interned into `graph`'s dictionary.
Result<std::vector<GraphEdit>> ParseEditScript(std::string_view text,
                                               rdf::TemporalGraph* graph);

/// \brief Check that the whole batch would apply cleanly to `graph`
/// without mutating anything: every insert confidence is in (0,1] and
/// every retraction matches at least one fact live at its point in the
/// batch. This is the pre-flight the engine runs before writing the batch
/// to the WAL — nothing invalid may be logged or published.
Status ValidateGraphEdits(const std::vector<GraphEdit>& edits,
                          const rdf::TemporalGraph& graph);

/// \brief Apply edits in order. Inserts append; retracts tombstone every
/// live match and fail if nothing matches (catching script typos early).
Result<EditApplication> ApplyGraphEdits(const std::vector<GraphEdit>& edits,
                                        rdf::TemporalGraph* graph);

/// \brief Serialize an edit batch back to canonical edit-script text —
/// the exact format `ParseEditScript` reads, one `+`/`-` line per edit
/// with confidences via `FormatDoubleExact`. Parsing the result against a
/// graph with the same dictionary state reproduces `edits` bit-exactly;
/// this is the WAL payload for `kEditBatch` records.
std::string EditScriptToText(const std::vector<GraphEdit>& edits,
                             const rdf::TemporalGraph& graph);

}  // namespace core
}  // namespace tecore

#endif  // TECORE_CORE_EDITS_H_
