#include "acdn_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace acdn::lint {

namespace {

[[nodiscard]] bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] bool starts_with(const std::string& s, const std::string& p) {
  return s.rfind(p, 0) == 0;
}

// ------------------------------------------------------------ code view

/// The file with comments and string/char literals blanked to spaces
/// (newlines preserved), so rules never match prose or log text, plus the
/// line table for offset -> 1-based line lookups.
struct Stripped {
  std::string code;
  /// Comments kept, string/char literals blanked: the view NOLINT-ACDN
  /// directives are parsed from. Parsing them from raw text let string
  /// literals (raw strings especially) suppress or fabricate findings.
  std::string directives;
  std::vector<std::size_t> line_start;  // offset of each line's first char

  [[nodiscard]] int line_of(std::size_t pos) const {
    auto it = std::upper_bound(line_start.begin(), line_start.end(), pos);
    return static_cast<int>(it - line_start.begin());
  }
};

Stripped strip(const std::string& text) {
  Stripped out;
  out.code.assign(text.size(), ' ');
  out.directives.assign(text.size(), ' ');
  out.line_start.push_back(0);

  enum class State { kCode, kLine, kBlock, kString, kChar, kRaw };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') out.line_start.push_back(i + 1);

    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLine;
          out.directives[i] = c;
        } else if (c == '/' && next == '*') {
          state = State::kBlock;
          out.directives[i] = c;
          out.directives[i + 1] = next;
          ++i;
        } else if (c == '"') {
          // Raw string? Look back for R (and an optional prefix like u8R).
          if (i > 0 && text[i - 1] == 'R' &&
              (i < 2 || !ident_char(text[i - 2]) || text[i - 2] == '8' ||
               text[i - 2] == 'u' || text[i - 2] == 'U' ||
               text[i - 2] == 'L')) {
            raw_delim.clear();
            std::size_t j = i + 1;
            while (j < text.size() && text[j] != '(') {
              raw_delim.push_back(text[j]);
              ++j;
            }
            state = State::kRaw;
          } else {
            state = State::kString;
          }
        } else if (c == '\'' && !(i > 0 && ident_char(text[i - 1]))) {
          // Skips digit separators like 1'000 via the look-back.
          state = State::kChar;
        } else {
          out.code[i] = c;
          out.directives[i] = c;
        }
        break;
      case State::kLine:
        if (c == '\n') state = State::kCode;
        out.directives[i] = c;
        break;
      case State::kBlock:
        out.directives[i] = c;
        if (c == '*' && next == '/') {
          state = State::kCode;
          out.directives[i + 1] = next;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
          if (i < text.size() && text[i] == '\n') {
            out.line_start.push_back(i + 1);
          }
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRaw: {
        const std::string close = ")" + raw_delim + "\"";
        if (text.compare(i, close.size(), close) == 0) {
          i += close.size() - 1;
          state = State::kCode;
        }
        break;
      }
    }
    if (c == '\n') out.code[i] = '\n';
  }
  // Every newline of the original survives in the directive view (escaped
  // newlines inside literals included), so its line numbers match the
  // line table.
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') out.directives[i] = '\n';
  }
  return out;
}

/// True when code[pos..pos+token) is `token` with identifier boundaries.
[[nodiscard]] bool word_at(const std::string& code, std::size_t pos,
                           const std::string& token) {
  if (code.compare(pos, token.size(), token) != 0) return false;
  if (pos > 0 && ident_char(code[pos - 1])) return false;
  const std::size_t end = pos + token.size();
  return end >= code.size() || !ident_char(code[end]);
}

/// All boundary-checked occurrences of `token` in the code view.
[[nodiscard]] std::vector<std::size_t> find_words(const std::string& code,
                                                  const std::string& token) {
  std::vector<std::size_t> out;
  for (std::size_t pos = code.find(token); pos != std::string::npos;
       pos = code.find(token, pos + 1)) {
    if (word_at(code, pos, token)) out.push_back(pos);
  }
  return out;
}

[[nodiscard]] std::size_t skip_space(const std::string& code,
                                     std::size_t pos) {
  while (pos < code.size() &&
         std::isspace(static_cast<unsigned char>(code[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// Matches an angle-bracket group starting at code[open] == '<'. Returns
/// the offset one past the closing '>', or npos when it is not a template
/// argument list (comparison operators, EOF).
[[nodiscard]] std::size_t match_angles(const std::string& code,
                                       std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '<') ++depth;
    if (c == '>' && --depth == 0) return i + 1;
    if (c == ';' || c == '{') return std::string::npos;
  }
  return std::string::npos;
}

/// Matches a paren group starting at code[open] == '('. Returns the offset
/// one past the closing ')' (npos on EOF).
[[nodiscard]] std::size_t match_parens(const std::string& code,
                                       std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '(') ++depth;
    if (code[i] == ')' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

/// Identifier starting at pos, or empty.
[[nodiscard]] std::string read_ident(const std::string& code,
                                     std::size_t pos) {
  std::size_t end = pos;
  while (end < code.size() && ident_char(code[end])) ++end;
  if (end == pos || std::isdigit(static_cast<unsigned char>(code[pos]))) {
    return {};
  }
  return code.substr(pos, end - pos);
}

// --------------------------------------------------------- NOLINT-ACDN

struct Directive {
  int line = 0;
  std::string rule;
  std::string justification;
};

/// Directives are parsed from the strings-blanked view (Stripped::
/// directives) so they work inside comments but a NOLINT-ACDN spelled in
/// a string or raw-string literal — test data, log text, the linter's own
/// fixtures — can neither suppress a finding nor fabricate a
/// nolint-justification one. Only a parenthesized lowercase rule name
/// parses as a directive; anything else (placeholders like
/// NOLINT-ACDN(<rule>) in prose) is ignored, which is fail-safe: a typo
/// never suppresses a finding.
std::vector<Directive> parse_directives(const std::string& text) {
  std::vector<Directive> out;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string marker = "NOLINT-ACDN";
    for (std::size_t pos = line.find(marker); pos != std::string::npos;
         pos = line.find(marker, pos + 1)) {
      std::size_t p = pos + marker.size();
      if (p >= line.size() || line[p] != '(') continue;
      ++p;
      std::string rule;
      while (p < line.size() &&
             (std::islower(static_cast<unsigned char>(line[p])) != 0 ||
              line[p] == '-')) {
        rule.push_back(line[p]);
        ++p;
      }
      if (p >= line.size() || line[p] != ')' || rule.empty()) continue;
      ++p;
      Directive d;
      d.line = line_no;
      d.rule = rule;
      if (p < line.size() && line[p] == ':') {
        std::string just = line.substr(p + 1);
        const auto first = just.find_first_not_of(" \t");
        const auto last = just.find_last_not_of(" \t");
        if (first != std::string::npos) {
          just = just.substr(first, last - first + 1);
        } else {
          just.clear();
        }
        d.justification = just;
      }
      out.push_back(std::move(d));
    }
  }
  return out;
}

// ------------------------------------------- unordered container survey

const std::vector<std::string>& unordered_types() {
  static const std::vector<std::string> kTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kTypes;
}

struct UnorderedSurvey {
  /// (declared name, line) — variables, members, parameters, functions
  /// returning unordered containers.
  std::vector<std::pair<std::string, int>> decls;
  /// (alias name, line) from `using X = std::unordered_...`.
  std::vector<std::pair<std::string, int>> aliases;
};

/// The declared entity following a type that ends at `after_type`:
/// skips `&`, `*`, and whitespace; rejects `::` (nested-type usage).
[[nodiscard]] std::string decl_name_after(const std::string& code,
                                          std::size_t after_type) {
  std::size_t p = skip_space(code, after_type);
  while (p < code.size() && (code[p] == '&' || code[p] == '*')) {
    p = skip_space(code, p + 1);
  }
  if (p + 1 < code.size() && code[p] == ':' && code[p + 1] == ':') return {};
  return read_ident(code, p);
}

/// True when the token at `pos` is the RHS of `using X =` and fills in
/// the alias name.
[[nodiscard]] bool alias_target_name(const std::string& code,
                                     std::size_t pos, std::string* name) {
  // Walk back over "std::" and whitespace to the '='.
  std::size_t p = pos;
  while (p > 0 && (ident_char(code[p - 1]) || code[p - 1] == ':')) --p;
  while (p > 0 &&
         std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) {
    --p;
  }
  if (p == 0 || code[p - 1] != '=') return false;
  --p;
  while (p > 0 &&
         std::isspace(static_cast<unsigned char>(code[p - 1])) != 0) {
    --p;
  }
  std::size_t end = p;
  while (p > 0 && ident_char(code[p - 1])) --p;
  if (p == end) return false;
  *name = code.substr(p, end - p);
  return true;
}

UnorderedSurvey survey_unordered(const Stripped& s) {
  UnorderedSurvey out;
  for (const std::string& type : unordered_types()) {
    for (std::size_t pos : find_words(s.code, type)) {
      const std::size_t open = skip_space(s.code, pos + type.size());
      if (open >= s.code.size() || s.code[open] != '<') continue;
      const std::size_t after = match_angles(s.code, open);
      if (after == std::string::npos) continue;
      std::string alias;
      if (alias_target_name(s.code, pos, &alias)) {
        out.aliases.emplace_back(alias, s.line_of(pos));
        continue;
      }
      const std::string name = decl_name_after(s.code, after);
      if (!name.empty()) out.decls.emplace_back(name, s.line_of(pos));
    }
  }
  // Declarations through an alias: `NameMap<V> counters;`. They inherit
  // the alias's justification, so they are tracked for the iteration rule
  // but produce no unordered-decl finding of their own.
  for (const auto& [alias, alias_line] : out.aliases) {
    for (std::size_t pos : find_words(s.code, alias)) {
      if (s.line_of(pos) == alias_line) continue;  // the definition
      std::size_t p = skip_space(s.code, pos + alias.size());
      if (p < s.code.size() && s.code[p] == '<') {
        const std::size_t after = match_angles(s.code, p);
        if (after == std::string::npos) continue;
        p = after;
      }
      const std::string name = decl_name_after(s.code, p);
      if (!name.empty()) out.decls.emplace_back(name, -1);
    }
  }
  return out;
}

// ------------------------------------------------------------- rules

void rule_unordered_iter(const Stripped& s,
                         const std::set<std::string>& names,
                         std::vector<Finding>* out) {
  if (names.empty()) return;
  // Range-for whose range expression mentions an unordered name.
  for (std::size_t pos : find_words(s.code, "for")) {
    const std::size_t open = skip_space(s.code, pos + 3);
    if (open >= s.code.size() || s.code[open] != '(') continue;
    const std::size_t close = match_parens(s.code, open);
    if (close == std::string::npos) continue;
    // Find the range-for ':' at paren depth 0, skipping '::'.
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t i = open + 1; i + 1 < close; ++i) {
      const char c = s.code[i];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (c == ';') break;  // classic for loop
      if (c == ':' && depth == 0) {
        if (s.code[i + 1] == ':' || s.code[i - 1] == ':') {
          if (s.code[i + 1] == ':') ++i;
          continue;
        }
        colon = i;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    for (std::size_t i = colon + 1; i < close - 1;) {
      if (ident_char(s.code[i]) &&
          (i == 0 || !ident_char(s.code[i - 1]))) {
        const std::string ident = read_ident(s.code, i);
        if (!ident.empty() && names.count(ident) > 0) {
          out->push_back({"", s.line_of(pos), "unordered-iter",
                          "range-for over unordered container '" + ident +
                              "': hash order is not deterministic across "
                              "libraries/runs — iterate a sorted view or "
                              "justify why order cannot reach output"});
          break;
        }
        i += ident.empty() ? 1 : ident.size();
      } else {
        ++i;
      }
    }
  }
  // Explicit iterator loops: `name.begin()` / `expr->name.begin()`.
  for (std::size_t pos : find_words(s.code, "begin")) {
    std::size_t p = pos;
    while (p > 0 &&
           std::isspace(static_cast<unsigned char>(s.code[p - 1])) != 0) {
      --p;
    }
    bool member_access = false;
    if (p > 0 && s.code[p - 1] == '.') {
      member_access = true;
      p -= 1;
    } else if (p > 1 && s.code[p - 2] == '-' && s.code[p - 1] == '>') {
      member_access = true;
      p -= 2;
    }
    if (!member_access) continue;
    const std::size_t call = skip_space(s.code, pos + 5);
    if (call >= s.code.size() || s.code[call] != '(') continue;
    std::size_t end = p;
    while (end > 0 && ident_char(s.code[end - 1])) --end;
    const std::string obj = s.code.substr(end, p - end);
    if (!obj.empty() && names.count(obj) > 0) {
      out->push_back({"", s.line_of(pos), "unordered-iter",
                      "iterator over unordered container '" + obj +
                          "': hash order is not deterministic — sort keys "
                          "first or justify order-insensitivity"});
    }
  }
}

void rule_unordered_decl(const UnorderedSurvey& survey,
                         std::vector<Finding>* out) {
  for (const auto& [name, line] : survey.decls) {
    if (line < 0) continue;  // alias-typed: justified at the alias
    out->push_back({"", line, "unordered-decl",
                    "unordered container '" + name +
                        "' — state why hash order cannot leak into "
                        "results (NOLINT-ACDN justification) or use an "
                        "ordered container"});
  }
  for (const auto& [name, line] : survey.aliases) {
    out->push_back({"", line, "unordered-decl",
                    "unordered container alias '" + name +
                        "' — state why hash order cannot leak into "
                        "results (NOLINT-ACDN justification) or use an "
                        "ordered container"});
  }
}

void rule_raw_thread(const Stripped& s, const std::string& label,
                     std::vector<Finding>* out) {
  if (starts_with(label, "src/common/executor")) return;
  for (const std::string& token :
       {std::string("std::thread"), std::string("std::jthread"),
        std::string("std::async")}) {
    for (std::size_t pos : find_words(s.code, token)) {
      out->push_back({"", s.line_of(pos), "raw-thread",
                      token + " outside common/executor — all parallelism "
                              "goes through Executor::global() so chunk "
                              "plans stay deterministic and exceptions "
                              "propagate"});
    }
  }
}

void rule_banned_random(const Stripped& s, const std::string& label,
                        std::vector<Finding>* out) {
  const bool is_rng = starts_with(label, "src/common/rng");
  for (const std::string& fn : {std::string("rand"), std::string("srand")}) {
    for (std::size_t pos : find_words(s.code, fn)) {
      const std::size_t call = skip_space(s.code, pos + fn.size());
      if (call >= s.code.size() || s.code[call] != '(') continue;
      out->push_back({"", s.line_of(pos), "banned-random",
                      fn + "() is process-global and unseeded — draw from "
                           "an explicitly seeded common/rng Rng (fork a "
                           "labeled substream)"});
    }
  }
  if (!is_rng) {
    for (std::size_t pos : find_words(s.code, "random_device")) {
      out->push_back({"", s.line_of(pos), "banned-random",
                      "std::random_device is nondeterministic by design — "
                      "seed a common/rng Rng from the scenario seed "
                      "instead"});
    }
  }
  // std::*_distribution: implementation-defined draw sequences. Allowed
  // only inside common/rng (which wraps them behind portable helpers);
  // poisson_distribution is banned even there (PR 1: libstdc++-specific
  // draws plus a signgam data race).
  for (std::size_t pos = s.code.find("_distribution");
       pos != std::string::npos;
       pos = s.code.find("_distribution", pos + 1)) {
    const std::size_t end = pos + std::string("_distribution").size();
    if (end < s.code.size() && ident_char(s.code[end])) continue;
    std::size_t begin = pos;
    while (begin > 0 && ident_char(s.code[begin - 1])) --begin;
    const std::string name = s.code.substr(begin, end - begin);
    if (name == "_distribution") continue;
    if (name == "poisson_distribution") {
      out->push_back({"", s.line_of(pos), "banned-random",
                      "std::poisson_distribution draws are "
                      "implementation-defined and its lgamma setup races "
                      "on signgam — use Rng::poisson"});
    } else if (!is_rng) {
      out->push_back({"", s.line_of(pos), "banned-random",
                      "std::" + name + " outside common/rng — draw "
                      "sequences are implementation-defined; use the Rng "
                      "helpers (or add one)"});
    }
  }
}

void rule_wall_clock(const Stripped& s, const std::string& label,
                     std::vector<Finding>* out) {
  for (const std::string& token :
       {std::string("system_clock"), std::string("high_resolution_clock"),
        std::string("gettimeofday")}) {
    for (std::size_t pos : find_words(s.code, token)) {
      out->push_back({"", s.line_of(pos), "wall-clock",
                      token + " reads the wall clock — simulation state "
                              "must advance on SimClock/SimTime only"});
    }
  }
  if (!starts_with(label, "src/common/metrics")) {
    for (std::size_t pos : find_words(s.code, "steady_clock")) {
      out->push_back({"", s.line_of(pos), "wall-clock",
                      "steady_clock outside the observability layer "
                      "(common/metrics) — results must not depend on "
                      "elapsed real time"});
    }
  }
  for (const std::string& fn : {std::string("time"), std::string("clock")}) {
    for (std::size_t pos : find_words(s.code, fn)) {
      // Skip member/scoped uses like sim.time() or Clock::time().
      if (pos > 0 && (s.code[pos - 1] == '.' || s.code[pos - 1] == ':' ||
                      s.code[pos - 1] == '>')) {
        continue;
      }
      const std::size_t call = skip_space(s.code, pos + fn.size());
      if (call >= s.code.size() || s.code[call] != '(') continue;
      const std::size_t arg = skip_space(s.code, call + 1);
      const bool c_time_call =
          fn == "time"
              ? (word_at(s.code, arg, "NULL") ||
                 word_at(s.code, arg, "nullptr"))
              : (arg < s.code.size() && s.code[arg] == ')');
      if (!c_time_call) continue;
      out->push_back({"", s.line_of(pos), "wall-clock",
                      fn + "() reads the wall clock — simulation state "
                           "must advance on SimClock/SimTime only"});
    }
  }
}

void rule_parallel_fp_accum(const Stripped& s, const std::string& label,
                            std::vector<Finding>* out) {
  if (starts_with(label, "src/common/executor") ||
      starts_with(label, "src/common/parallel")) {
    return;
  }
  for (std::size_t pos : find_words(s.code, "parallel_for")) {
    const std::size_t open = skip_space(s.code, pos + 12);
    if (open >= s.code.size() || s.code[open] != '(') continue;
    const std::size_t close = match_parens(s.code, open);
    if (close == std::string::npos) continue;
    for (std::size_t i = open; i + 1 < close; ++i) {
      const char c = s.code[i];
      if ((c == '+' || c == '-') && s.code[i + 1] == '=' &&
          (i == 0 || (s.code[i - 1] != c && s.code[i - 1] != '<' &&
                      s.code[i - 1] != '>'))) {
        out->push_back(
            {"", s.line_of(i), "parallel-fp-accum",
             "compound accumulation inside a parallel_for body — "
             "cross-iteration accumulation is schedule-dependent; use "
             "parallel_reduce's chunk-ordered fold, or justify that the "
             "target is per-iteration state"});
      }
    }
  }
}

void rule_failpoint(const Stripped& s, const std::string& label,
                    std::vector<Finding>* out) {
  if (starts_with(label, "src/common/failpoint")) return;
  // Ad-hoc failure modelling: a bernoulli draw whose probability
  // expression names failure-ish state. Injected failures belong behind a
  // named common/failpoint fail point, where they are seeded from the
  // scenario, windowed by day, and trigger-counted into the manifest;
  // an rng draw is invisible to the chaos accounting and perturbs the
  // deterministic stream. Organic world behavior (modeled loss rates)
  // stays on rng with a NOLINT-ACDN justification.
  static const std::vector<std::string> kFailureWords = {
      "fail",  "fault", "outage",  "corrupt", "loss",
      "drop",  "error", "timeout", "servfail"};
  for (std::size_t pos : find_words(s.code, "bernoulli")) {
    const std::size_t open =
        skip_space(s.code, pos + std::string("bernoulli").size());
    if (open >= s.code.size() || s.code[open] != '(') continue;
    const std::size_t close = match_parens(s.code, open);
    if (close == std::string::npos) continue;
    std::string arg = s.code.substr(open, close - open);
    std::transform(arg.begin(), arg.end(), arg.begin(), [](char c) {
      return static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    });
    for (const std::string& word : kFailureWords) {
      if (arg.find(word) == std::string::npos) continue;
      out->push_back({"", s.line_of(pos), "failpoint",
                      "failure probability ('" + word +
                          "') drawn from rng — injected failures go "
                          "through a named common/failpoint fail point "
                          "(seeded, day-windowed, trigger-counted); "
                          "justify if this models organic world "
                          "behavior"});
      break;
    }
  }
}

void rule_unguarded_mutex(const Stripped& s, const std::string& label,
                          std::vector<Finding>* out) {
  // The annotated wrappers (acdn::Mutex & co) are the only sanctioned
  // spelling in src/: a raw std mutex type carries no capability
  // attribute, so -Wthread-safety cannot verify anything about it. The
  // wrappers' own std members are suppressed in place with NOLINT-ACDN.
  if (!starts_with(label, "src/")) return;
  for (const std::string& token :
       {std::string("std::mutex"), std::string("std::shared_mutex"),
        std::string("std::recursive_mutex"),
        std::string("std::timed_mutex")}) {
    for (std::size_t pos : find_words(s.code, token)) {
      out->push_back({"", s.line_of(pos), "unguarded-mutex",
                      token + " is invisible to -Wthread-safety — use the "
                              "annotated acdn::Mutex/SharedMutex "
                              "(common/thread_annotations.h) and mark "
                              "guarded members ACDN_GUARDED_BY"});
    }
  }
}

void rule_unchecked_pack(const Stripped& s, const std::string& label,
                         std::vector<Finding>* out) {
  // Bit-packing by shift-or: `(a << K) | b`. PR 7 shipped a 12-bit
  // beacon-id aliasing bug of exactly this shape — the pack is silently
  // lossy the day an operand outgrows its field. A pack is fine when the
  // operands are range-guarded by an ACDN_CHECK*/ACDN_DCHECK* within a
  // few lines; otherwise it is a finding.
  if (!starts_with(label, "src/")) return;
  constexpr int kGuardRadius = 10;  // lines on either side of the pack
  std::vector<int> guard_lines;
  for (const std::string& fam :
       {std::string("ACDN_CHECK"), std::string("ACDN_DCHECK")}) {
    for (std::size_t pos = s.code.find(fam); pos != std::string::npos;
         pos = s.code.find(fam, pos + 1)) {
      if (pos > 0 && ident_char(s.code[pos - 1])) continue;
      guard_lines.push_back(s.line_of(pos));
    }
  }
  const auto guarded_near = [&](int line) {
    for (const int g : guard_lines) {
      if (g >= line - kGuardRadius && g <= line + kGuardRadius) return true;
    }
    return false;
  };
  std::set<std::size_t> reported;  // statement begins; one finding each
  for (std::size_t pos = s.code.find("<<"); pos != std::string::npos;
       pos = s.code.find("<<", pos + 2)) {
    if (pos + 2 < s.code.size() && s.code[pos + 2] == '<') continue;
    if (pos > 0 && s.code[pos - 1] == '<') continue;
    // Packing shifts move by a literal field width; shifts by an
    // expression (and stream inserts, which shift nothing) are skipped.
    const std::size_t rhs = skip_space(s.code, pos + 2);
    if (rhs >= s.code.size() ||
        std::isdigit(static_cast<unsigned char>(s.code[rhs])) == 0) {
      continue;
    }
    // The enclosing statement: between ';', '{', '}' boundaries.
    std::size_t begin = pos;
    while (begin > 0 && s.code[begin - 1] != ';' &&
           s.code[begin - 1] != '{' && s.code[begin - 1] != '}') {
      --begin;
    }
    std::size_t end = pos;
    while (end < s.code.size() && s.code[end] != ';' &&
           s.code[end] != '{' && s.code[end] != '}') {
      ++end;
    }
    bool has_or = false;
    for (std::size_t i = begin; i < end; ++i) {
      if (s.code[i] != '|') continue;
      const char prev = i > 0 ? s.code[i - 1] : '\0';
      const char after = i + 1 < s.code.size() ? s.code[i + 1] : '\0';
      if (prev == '|' || after == '|' || after == '=') continue;
      has_or = true;
      break;
    }
    if (!has_or) continue;
    if (!reported.insert(begin).second) continue;  // one per statement
    const int line = s.line_of(pos);
    if (guarded_near(line)) continue;
    out->push_back({"", line, "unchecked-pack",
                    "shift-or bit-pack with no ACDN_CHECK*/ACDN_DCHECK* "
                    "range guard nearby — an operand outgrowing its field "
                    "aliases silently (the PR 7 beacon-id bug); check the "
                    "operands' ranges beside the pack or justify why they "
                    "cannot overflow"});
  }
}

void rule_raw_intrinsics(const Stripped& s, std::vector<Finding>* out) {
  // The tree has no vector code path: the join's and aggregation's
  // integer kernels are plain loops, because no hand-written vector body
  // showed an end-to-end perfbench win at a shipped scale. An intrinsic
  // anywhere is a finding unless a NOLINT-ACDN justification says why it
  // is there.
  const std::string why =
      " — the tree has no vector code path: write a plain loop, or "
      "justify (a vector kernel needs an end-to-end perfbench win at a "
      "shipped scale)";

  // Vendor intrinsic headers (<immintrin.h> and family, <arm_neon.h>).
  for (std::size_t pos = s.code.find("#include"); pos != std::string::npos;
       pos = s.code.find("#include", pos + 1)) {
    std::size_t eol = s.code.find('\n', pos);
    if (eol == std::string::npos) eol = s.code.size();
    const std::string line = s.code.substr(pos, eol - pos);
    if (line.find("intrin.h") != std::string::npos ||
        line.find("arm_neon") != std::string::npos ||
        line.find("arm_sve") != std::string::npos) {
      out->push_back({"", s.line_of(pos), "raw-intrinsics",
                      "vendor intrinsic header include" + why});
    }
  }

  // NEON intrinsics end in a lane-type tail (vld1q_f64, vaddq_u32) and
  // the vector types in a lane-count tail (float64x2_t); requiring the
  // tail keeps ordinary identifiers like `vaddr` out.
  static const std::vector<std::string> kNeonLaneTails = {
      "_s8",  "_s16", "_s32", "_s64", "_u8",  "_u16", "_u32",
      "_u64", "_f16", "_f32", "_f64", "_p8",  "_p16"};
  static const std::vector<std::string> kNeonTypeTails = {
      "x2_t", "x4_t", "x8_t", "x16_t"};
  static const std::vector<std::string> kNeonPrefixes = {
      "vld",  "vst",  "vdup", "vadd", "vsub", "vmul", "vdiv",
      "vfma", "vmla", "vand", "vorr", "veor", "vget", "vset",
      "vcvt", "vmax", "vmin", "vabs", "vneg", "vbsl", "vceq",
      "vclt", "vcgt", "vreinterpret"};
  const auto ends_with_any = [](const std::string& id,
                                const std::vector<std::string>& tails) {
    for (const std::string& t : tails) {
      if (id.size() > t.size() &&
          id.compare(id.size() - t.size(), t.size(), t) == 0) {
        return true;
      }
    }
    return false;
  };
  const auto has_neon_prefix = [&](const std::string& id) {
    for (const std::string& p : kNeonPrefixes) {
      if (starts_with(id, p)) return true;
    }
    return false;
  };

  for (std::size_t i = 0; i < s.code.size();) {
    if (!ident_char(s.code[i]) || (i > 0 && ident_char(s.code[i - 1]))) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < s.code.size() && ident_char(s.code[end])) ++end;
    const std::string id = s.code.substr(i, end - i);
    // x86: _mm_* / _mm256_* calls and the __m128/__m256/__m512 types.
    const bool x86 =
        starts_with(id, "_mm") ||
        (starts_with(id, "__m") && id.size() > 3 &&
         std::isdigit(static_cast<unsigned char>(id[3])) != 0);
    const bool neon =
        (has_neon_prefix(id) && ends_with_any(id, kNeonLaneTails)) ||
        ends_with_any(id, kNeonTypeTails);
    if (x86 || neon) {
      out->push_back({"", s.line_of(i), "raw-intrinsics",
                      "raw SIMD intrinsic '" + id + "'" + why});
    }
    i = end;
  }
}

}  // namespace

// ------------------------------------------------------------ public API

const std::vector<std::string>& known_rules() {
  static const std::vector<std::string> kRules = {
      "unordered-iter",  "unordered-decl",
      "raw-thread",      "banned-random",
      "wall-clock",      "parallel-fp-accum",
      "failpoint",       "unguarded-mutex",
      "unchecked-pack",  "raw-intrinsics",
      "nolint-justification"};
  return kRules;
}

std::vector<std::string> unordered_names(const std::string& text) {
  const Stripped s = strip(text);
  const UnorderedSurvey survey = survey_unordered(s);
  std::vector<std::string> out;
  for (const auto& [name, line] : survey.decls) out.push_back(name);
  return out;
}

std::vector<Finding> lint_file(
    const FileInput& file,
    const std::vector<std::string>& extra_unordered_names) {
  const Stripped s = strip(file.text);
  const UnorderedSurvey survey = survey_unordered(s);
  const std::vector<Directive> directives = parse_directives(s.directives);

  std::set<std::string> names(extra_unordered_names.begin(),
                              extra_unordered_names.end());
  for (const auto& [name, line] : survey.decls) names.insert(name);

  std::vector<Finding> findings;
  rule_unordered_iter(s, names, &findings);
  rule_unordered_decl(survey, &findings);
  rule_raw_thread(s, file.label, &findings);
  rule_banned_random(s, file.label, &findings);
  rule_wall_clock(s, file.label, &findings);
  rule_parallel_fp_accum(s, file.label, &findings);
  rule_failpoint(s, file.label, &findings);
  rule_unguarded_mutex(s, file.label, &findings);
  rule_unchecked_pack(s, file.label, &findings);
  rule_raw_intrinsics(s, &findings);

  // Suppression: a well-formed directive covers its own line and the next.
  const std::set<std::string> rules(known_rules().begin(),
                                    known_rules().end());
  std::set<std::pair<int, std::string>> suppressed;
  for (const Directive& d : directives) {
    if (rules.count(d.rule) == 0 || d.justification.size() < 5) continue;
    suppressed.insert({d.line, d.rule});
    suppressed.insert({d.line + 1, d.rule});
  }
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    if (suppressed.count({f.line, f.rule}) > 0) continue;
    f.file = file.label;
    kept.push_back(std::move(f));
  }

  for (const Directive& d : directives) {
    if (rules.count(d.rule) == 0) {
      kept.push_back({file.label, d.line, "nolint-justification",
                      "NOLINT-ACDN names unknown rule '" + d.rule + "'"});
    } else if (d.justification.size() < 5) {
      kept.push_back({file.label, d.line, "nolint-justification",
                      "NOLINT-ACDN(" + d.rule +
                          ") must carry a justification: `// NOLINT-ACDN(" +
                          d.rule + "): <why this is safe>`"});
    }
  }

  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  return kept;
}

std::vector<Finding> lint_tree(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const char* dir : {"src", "tests", "bench", "examples", "tools"}) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& p = entry.path();
      bool in_testdata = false;
      for (const auto& part : p) {
        if (part == "testdata") in_testdata = true;
      }
      if (in_testdata) continue;
      if (p.extension() == ".h" || p.extension() == ".cpp") {
        files.push_back(p);
      }
    }
  }
  std::sort(files.begin(), files.end());

  auto read = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };

  std::vector<Finding> out;
  for (const fs::path& p : files) {
    FileInput input;
    input.label = fs::relative(p, root).generic_string();
    input.text = read(p);
    std::vector<std::string> extra;
    if (p.extension() == ".cpp") {
      fs::path header = p;
      header.replace_extension(".h");
      if (fs::exists(header)) extra = unordered_names(read(header));
    }
    std::vector<Finding> file_findings = lint_file(input, extra);
    out.insert(out.end(), file_findings.begin(), file_findings.end());
  }
  return out;
}

std::string format(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n";  break;
      case '\t': out += "\\t";  break;
      case '\r': out += "\\r";  break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[(c >> 4) & 0xf]);
          out.push_back(kHex[c & 0xf]);
        } else {
          out.push_back(c);
        }
        break;
    }
  }
  return out;
}

}  // namespace

std::string format_json(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"file\": \"" + json_escape(f.file) + "\", \"line\": " +
           std::to_string(f.line) + ", \"rule\": \"" + json_escape(f.rule) +
           "\", \"message\": \"" + json_escape(f.message) + "\"}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

}  // namespace acdn::lint
