#include "rdf/io.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace tecore {
namespace rdf {

namespace {

/// Tokenize a fact line: whitespace-separated, but quoted strings are one
/// token (quotes retained so the term builder can tell literals apart).
Result<std::vector<std::string>> TokenizeLine(std::string_view line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  const size_t n = line.size();
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(line[i]))) ++i;
    if (i >= n) break;
    if (line[i] == '"') {
      std::string tok = "\"";
      ++i;
      bool closed = false;
      while (i < n) {
        char c = line[i++];
        if (c == '\\' && i < n) {
          tok.push_back(line[i++]);
          continue;
        }
        if (c == '"') {
          closed = true;
          break;
        }
        tok.push_back(c);
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal: '" +
                                  std::string(line) + "'");
      }
      tok += '"';
      tokens.push_back(std::move(tok));
    } else {
      size_t start = i;
      while (i < n && !std::isspace(static_cast<unsigned char>(line[i]))) ++i;
      tokens.emplace_back(line.substr(start, i - start));
    }
  }
  return tokens;
}

/// Build a Term from a token (quotes -> literal, digits -> int, _: -> blank).
Term TermFromToken(const std::string& token) {
  if (token.size() >= 2 && token.front() == '"' && token.back() == '"') {
    return Term::Literal(token.substr(1, token.size() - 2));
  }
  if (StartsWith(token, "_:")) {
    return Term::Blank(token.substr(2));
  }
  int64_t value = 0;
  if (ParseInt64(token, &value)) {
    return Term::IntLiteral(value);
  }
  return Term::Iri(token);
}

}  // namespace

Result<TemporalFact> ParseFactText(std::string_view line,
                                   TemporalGraph* graph) {
  TECORE_ASSIGN_OR_RETURN(tokens, TokenizeLine(line));
  if (!tokens.empty() && tokens.back() == ".") tokens.pop_back();
  // The statement terminator may also be attached to the last token
  // (`s p o [1,2].` in the examples' style). Quoted literals keep their
  // dot: a trailing `.` after a closing quote tokenizes separately above.
  if (!tokens.empty() && tokens.back().size() > 1 &&
      tokens.back().back() == '.' && tokens.back().front() != '"') {
    tokens.back().pop_back();
  }
  if (tokens.size() < 4 || tokens.size() > 5) {
    return Status::ParseError(
        "expected 's p o [b,e] [conf]' , got " +
        std::to_string(tokens.size()) + " tokens in: '" + std::string(line) +
        "'");
  }
  TECORE_ASSIGN_OR_RETURN(interval, temporal::Interval::Parse(tokens[3]));
  double confidence = 1.0;
  if (tokens.size() == 5) {
    if (!ParseDouble(tokens[4], &confidence)) {
      return Status::ParseError("bad confidence '" + tokens[4] + "' in: '" +
                                std::string(line) + "'");
    }
  }
  Term subject = TermFromToken(tokens[0]);
  Term predicate = TermFromToken(tokens[1]);
  Term object = TermFromToken(tokens[2]);
  if (!predicate.is_iri()) {
    return Status::ParseError("predicate must be an IRI in: '" +
                              std::string(line) + "'");
  }
  return TemporalFact(graph->dict().Intern(subject),
                      graph->dict().Intern(predicate),
                      graph->dict().Intern(object), interval, confidence);
}

Result<FactId> ParseFactLine(std::string_view line, TemporalGraph* graph) {
  TECORE_ASSIGN_OR_RETURN(fact, ParseFactText(line, graph));
  return graph->Add(fact);
}

std::string_view StripTqComment(std::string_view line) {
  // A '#' starts a comment unless it sits inside a string literal. Escape
  // sequences consume the next character, so `"ends with \\"` closes the
  // string and `"a \" b"` does not — the same rules TokenizeLine applies.
  bool in_string = false;
  bool escaped = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '#') {
      return line.substr(0, i);
    }
  }
  return line;
}

Result<TemporalGraph> ParseGraphText(std::string_view text) {
  TemporalGraph graph;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view raw = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    std::string_view line = Trim(StripTqComment(raw));
    if (line.empty()) continue;
    Result<FactId> fact = ParseFactLine(line, &graph);
    if (!fact.ok()) {
      return Status::ParseError(StringPrintf("line %zu: ", line_no) +
                                fact.status().message());
    }
  }
  return graph;
}

std::string WriteFactText(const TemporalGraph& graph,
                          const TemporalFact& fact) {
  std::string out;
  out += graph.dict().Lookup(fact.subject).ToString();
  out += ' ';
  out += graph.dict().Lookup(fact.predicate).ToString();
  out += ' ';
  out += graph.dict().Lookup(fact.object).ToString();
  out += ' ';
  out += fact.interval.ToString();
  // Shortest round-trip-exact confidence: "%g" (6 significant digits)
  // silently perturbed confidences on save/load and with them the
  // resolution objective.
  out += ' ';
  out += FormatDoubleExact(fact.confidence);
  return out;
}

std::string WriteGraphText(const TemporalGraph& graph) {
  std::string out;
  for (FactId id = 0; id < graph.NumFacts(); ++id) {
    if (!graph.is_live(id)) continue;
    out += WriteFactText(graph, graph.fact(id));
    out += " .\n";
  }
  return out;
}

Result<TemporalGraph> LoadGraphFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseGraphText(buf.str());
}

Status SaveGraphFile(const TemporalGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open file for writing: " + path);
  }
  out << WriteGraphText(graph);
  return out.good() ? Status::OK()
                    : Status::IoError("write failed: " + path);
}

}  // namespace rdf
}  // namespace tecore
