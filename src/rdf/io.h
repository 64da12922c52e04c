#ifndef TECORE_RDF_IO_H_
#define TECORE_RDF_IO_H_

#include <string>

#include "rdf/graph.h"
#include "util/status.h"

namespace tecore {
namespace rdf {

/// \brief Text serialization of UTKGs: the ".tq" (temporal quads) format.
///
/// One fact per line:
///
///     subject predicate object [begin,end] confidence .
///
/// * terms are whitespace-separated; string literals are double-quoted with
///   backslash escapes; integers are bare digits; blanks are `_:label`,
///   everything else is a bare IRI;
/// * the interval may be `[t]` for a point;
/// * confidence is optional (defaults to 1.0), the trailing dot is optional;
/// * `#` starts a comment; blank lines are skipped.
///
/// Example (paper Fig. 1):
///
///     CR coach Chelsea [2000,2004] 0.9 .
///     CR birthDate 1951 [1951,2017] 1.0 .

/// \brief Parse a whole ".tq" document into a graph.
Result<TemporalGraph> ParseGraphText(std::string_view text);

/// \brief Parse one fact line into `graph`. Returns the new fact's id.
Result<FactId> ParseFactLine(std::string_view line, TemporalGraph* graph);

/// \brief Parse one fact line, interning its terms into `graph`'s
/// dictionary but *not* appending the fact (edit scripts retract by
/// parsed quad, so they need the fact without the side effect).
Result<TemporalFact> ParseFactText(std::string_view line,
                                   TemporalGraph* graph);

/// \brief Strip a '#' comment, honouring string literals and their escape
/// sequences (the exact rules the tokenizer uses).
std::string_view StripTqComment(std::string_view line);

/// \brief Serialize one fact as a ".tq" line body (no trailing " .\n").
/// Confidence is always emitted, via `FormatDoubleExact`, so the line
/// round-trips bit-exactly — the property the WAL and checkpoints rely on.
std::string WriteFactText(const TemporalGraph& graph, const TemporalFact& fact);

/// \brief Serialize the whole graph in ".tq" format.
std::string WriteGraphText(const TemporalGraph& graph);

/// \brief Load a ".tq" file from disk.
Result<TemporalGraph> LoadGraphFile(const std::string& path);

/// \brief Save a graph to disk in ".tq" format.
Status SaveGraphFile(const TemporalGraph& graph, const std::string& path);

}  // namespace rdf
}  // namespace tecore

#endif  // TECORE_RDF_IO_H_
