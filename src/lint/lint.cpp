#include "lint/lint.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace l2l::lint {

const char* severity_name(util::Severity s) {
  switch (s) {
    case util::Severity::kError: return "error";
    case util::Severity::kWarning: return "warning";
    case util::Severity::kNote: return "note";
  }
  return "error";
}

namespace {

/// JSON string escaping for hostile bytes embedded in messages (control
/// characters, quotes, backslashes; non-ASCII passes through untouched --
/// consumers treat the payload as opaque UTF-8-ish bytes).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += util::format("\\u%04x", c);
        else
          out += c;
    }
  }
  return out;
}

}  // namespace

// ---- findings -----------------------------------------------------------

std::string Finding::to_string() const {
  std::string out;
  if (line > 0) {
    out += util::format("line %d", line);
    if (column > 0) out += util::format(", col %d", column);
    out += ": ";
  }
  out += severity_name(severity);
  out += ": [" + rule + "] " + message;
  if (!hint.empty()) out += " (hint: " + hint + ")";
  return out;
}

util::Diagnostic Finding::to_diagnostic() const {
  util::Diagnostic d;
  d.severity = severity;
  d.line = line;
  d.column = column;
  d.message = "[" + rule + "] " + message;
  if (!hint.empty()) d.message += " (hint: " + hint + ")";
  return d;
}

void sort_findings(std::vector<Finding>& findings) {
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.line != b.line) return a.line < b.line;
                     if (a.column != b.column) return a.column < b.column;
                     if (a.rule != b.rule) return a.rule < b.rule;
                     return a.message < b.message;
                   });
}

std::vector<util::Diagnostic> to_diagnostics(
    const std::vector<Finding>& findings) {
  std::vector<util::Diagnostic> out;
  out.reserve(findings.size());
  for (const auto& f : findings) out.push_back(f.to_diagnostic());
  return out;
}

// ---- rule registry ------------------------------------------------------

const std::vector<RuleInfo>& all_rules() {
  using S = util::Severity;
  static const std::vector<RuleInfo> kRules = {
      // BLIF / network
      {"L2L-B001", S::kError, "unparsable BLIF structure (directive or cube out of place)"},
      {"L2L-B002", S::kError, "unsupported BLIF feature (.latch or unknown directive)"},
      {"L2L-B003", S::kError, "undriven net (used or output-declared, never driven)"},
      {"L2L-B004", S::kError, "multiply-driven net (more than one driver)"},
      {"L2L-B005", S::kError, "combinational cycle through .names blocks"},
      {"L2L-B006", S::kWarning, "dangling internal node (drives nothing, not an output)"},
      {"L2L-B007", S::kError, "output-name collision in .outputs"},
      {"L2L-B008", S::kError, "truth-table row arity mismatch or bad output column"},
      {"L2L-B009", S::kWarning, "declared input never used"},
      // PLA
      {"L2L-P001", S::kError, "missing/malformed PLA header or cube before header"},
      {"L2L-P002", S::kError, "input plane width differs from .i"},
      {"L2L-P003", S::kError, "output plane width differs from .o"},
      {"L2L-P004", S::kError, "invalid character in a cube plane"},
      {"L2L-P005", S::kWarning, "duplicate cube row"},
      {"L2L-P006", S::kWarning, "contradictory cubes (same input, inconsistent output phase)"},
      {"L2L-P007", S::kWarning, ".p row count differs from actual cube rows"},
      {"L2L-P008", S::kWarning, "cube row with an all-empty output plane (no effect)"},
      // DIMACS CNF
      {"L2L-C001", S::kError, "missing or malformed DIMACS problem line"},
      {"L2L-C002", S::kError, "bad or out-of-range literal"},
      {"L2L-C003", S::kError, "clause count drifts from header (or unterminated clause)"},
      {"L2L-C004", S::kWarning, "empty clause (trivially unsatisfiable)"},
      {"L2L-C005", S::kWarning, "duplicate clause"},
      {"L2L-C006", S::kWarning, "tautological clause (v and -v together)"},
      {"L2L-C007", S::kWarning, "duplicate literal inside one clause"},
      {"L2L-C008", S::kWarning, "declared variable never appears"},
      // placement text
      {"L2L-L001", S::kError, "malformed placement line (want 'cell <id> <col> <row>')"},
      {"L2L-L002", S::kError, "duplicate cell id"},
      {"L2L-L003", S::kError, "cell index out of range"},
      {"L2L-L004", S::kError, "coordinate outside the placement region"},
      {"L2L-L005", S::kError, "two cells on the same site (overlap)"},
      {"L2L-L006", S::kError, "cells missing from the assignment"},
      // routing problem
      {"L2L-R001", S::kError, "malformed routing-problem structure"},
      {"L2L-R002", S::kError, "grid header out of sane range"},
      {"L2L-R003", S::kError, "pin off-grid"},
      {"L2L-R004", S::kError, "pin on a blocked cell"},
      {"L2L-R005", S::kError, "duplicate net id"},
      {"L2L-R006", S::kWarning, "degenerate net (duplicate pins or < 2 distinct pins)"},
      {"L2L-R007", S::kError, "pin on a point another net has a pin on"},
      // routing solution
      {"L2L-S001", S::kError, "malformed routing-solution line"},
      {"L2L-S002", S::kError, "duplicate net id in solution"},
      {"L2L-S003", S::kError, "routed cell off-grid"},
      {"L2L-S004", S::kError, "routed cell on an obstacle"},
      {"L2L-S005", S::kWarning, "net id not present in the problem"},
      {"L2L-S006", S::kWarning, "header net count differs from nets in file"},
      // kbdd scripts
      {"L2L-K001", S::kError, "unknown kbdd command"},
      {"L2L-K002", S::kError, "reference to an undefined variable or function"},
      {"L2L-K003", S::kWarning, "duplicate variable declaration"},
      {"L2L-K004", S::kError, "malformed expression or command arguments"},
      // axb linear systems
      {"L2L-A001", S::kError, "bad or out-of-range dimension header"},
      {"L2L-A002", S::kError, "matrix or rhs entry missing / not a number"},
      {"L2L-A003", S::kWarning, "trailing garbage after the rhs vector"},
      {"L2L-A004", S::kWarning, "matrix not symmetric (CG mode needs SPD)"},
  };
  return kRules;
}

const RuleInfo* rule_info(std::string_view id) {
  for (const auto& r : all_rules())
    if (id == r.id) return &r;
  return nullptr;
}

// ---- formats ------------------------------------------------------------

const char* format_name(Format f) {
  switch (f) {
    case Format::kAuto: return "auto";
    case Format::kBlif: return "blif";
    case Format::kPla: return "pla";
    case Format::kCnf: return "cnf";
    case Format::kPlacement: return "place";
    case Format::kRouteProblem: return "route-problem";
    case Format::kRouteSolution: return "route-solution";
    case Format::kKbddScript: return "kbdd";
    case Format::kAxb: return "axb";
    case Format::kUnknown: return "unknown";
  }
  return "unknown";
}

std::optional<Format> parse_format_name(std::string_view name) {
  for (const Format f :
       {Format::kBlif, Format::kPla, Format::kCnf, Format::kPlacement,
        Format::kRouteProblem, Format::kRouteSolution, Format::kKbddScript,
        Format::kAxb, Format::kAuto})
    if (name == format_name(f)) return f;
  return std::nullopt;
}

Format format_from_path(std::string_view path) {
  const auto dot = path.rfind('.');
  if (dot == std::string_view::npos) return Format::kAuto;
  const auto ext = path.substr(dot + 1);
  if (ext == "blif") return Format::kBlif;
  if (ext == "pla") return Format::kPla;
  if (ext == "cnf") return Format::kCnf;
  if (ext == "place") return Format::kPlacement;
  if (ext == "problem") return Format::kRouteProblem;
  if (ext == "sol") return Format::kRouteSolution;
  if (ext == "kbdd") return Format::kKbddScript;
  if (ext == "axb") return Format::kAxb;
  return Format::kAuto;
}

Format sniff_format(const std::string& text) {
  // First meaningful line decides; every format here has a distinctive
  // opener. '#'-comments are shared by several formats, 'c' lines by
  // DIMACS -- skip both.
  std::size_t pos = 0;
  for (int scanned = 0; pos < text.size() && scanned < 64; ++scanned) {
    auto eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const auto t = util::trim(std::string_view(text).substr(pos, eol - pos));
    pos = eol + 1;
    if (t.empty() || t[0] == '#') continue;
    // "cell " before the DIMACS 'c' test: a placement's lines start with c.
    if (util::starts_with(t, "cell ")) return Format::kPlacement;
    if (util::starts_with(t, "p cnf") || t[0] == 'c') return Format::kCnf;
    if (util::starts_with(t, ".model") || util::starts_with(t, ".inputs"))
      return Format::kBlif;
    if (util::starts_with(t, ".i ") || util::starts_with(t, ".o "))
      return Format::kPla;
    if (util::starts_with(t, "grid ")) return Format::kRouteProblem;
    if (util::starts_with(t, "var ")) return Format::kKbddScript;
    // A routing solution opens with a bare net count, then "net <id>".
    if (util::parse_int(t)) {
      while (pos < text.size()) {
        auto e2 = text.find('\n', pos);
        if (e2 == std::string::npos) e2 = text.size();
        const auto t2 =
            util::trim(std::string_view(text).substr(pos, e2 - pos));
        pos = e2 + 1;
        if (t2.empty()) continue;
        return util::starts_with(t2, "net ") ? Format::kRouteSolution
                                             : Format::kAxb;
      }
      return Format::kUnknown;
    }
    return Format::kUnknown;
  }
  return Format::kUnknown;
}

// ---- reports ------------------------------------------------------------

namespace {
int count_severity(const std::vector<Finding>& fs, util::Severity s) {
  int n = 0;
  for (const auto& f : fs) n += f.severity == s ? 1 : 0;
  return n;
}
}  // namespace

int FileReport::errors() const {
  return count_severity(findings, util::Severity::kError);
}
int FileReport::warnings() const {
  return count_severity(findings, util::Severity::kWarning);
}
int FileReport::notes() const {
  return count_severity(findings, util::Severity::kNote);
}

int Report::errors() const {
  int n = 0;
  for (const auto& f : files) n += f.errors();
  return n;
}
int Report::warnings() const {
  int n = 0;
  for (const auto& f : files) n += f.warnings();
  return n;
}
int Report::notes() const {
  int n = 0;
  for (const auto& f : files) n += f.notes();
  return n;
}

bool Report::pass(bool werror) const {
  return errors() == 0 && (!werror || warnings() == 0);
}

std::string Report::to_text() const {
  std::string out;
  for (const auto& fr : files) {
    for (const auto& f : fr.findings)
      out += fr.file + ": " + f.to_string() + "\n";
  }
  out += util::format("lint: %d file(s), %d error(s), %d warning(s), "
                      "%d note(s)\n",
                      static_cast<int>(files.size()), errors(), warnings(),
                      notes());
  return out;
}

std::string Report::to_json() const {
  std::string out = "{\n  \"files\": [\n";
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto& fr = files[i];
    out += "    {\"file\": \"" + json_escape(fr.file) + "\", \"format\": \"" +
           format_name(fr.format) + "\", \"findings\": [";
    for (std::size_t k = 0; k < fr.findings.size(); ++k) {
      const auto& f = fr.findings[k];
      out += util::format(
          "\n      {\"rule\": \"%s\", \"severity\": \"%s\", \"line\": %d, "
          "\"column\": %d, \"message\": \"%s\", \"hint\": \"%s\"}%s",
          json_escape(f.rule).c_str(), severity_name(f.severity), f.line,
          f.column, json_escape(f.message).c_str(),
          json_escape(f.hint).c_str(),
          k + 1 < fr.findings.size() ? "," : "");
    }
    out += fr.findings.empty() ? "]}" : "\n    ]}";
    out += i + 1 < files.size() ? ",\n" : "\n";
  }
  out += util::format(
      "  ],\n  \"errors\": %d,\n  \"warnings\": %d,\n  \"notes\": %d\n}\n",
      errors(), warnings(), notes());
  return out;
}

// ---- dispatch -----------------------------------------------------------

FileReport lint_text(const std::string& name, const std::string& text,
                     const LintOptions& opt) {
  FileReport fr;
  fr.file = name;
  Format f = opt.format;
  if (f == Format::kAuto) f = format_from_path(name);
  if (f == Format::kAuto) f = sniff_format(text);
  fr.format = f;
  switch (f) {
    case Format::kBlif: fr.findings = lint_blif(text); break;
    case Format::kPla: fr.findings = lint_pla(text); break;
    case Format::kCnf: fr.findings = lint_cnf(text); break;
    case Format::kPlacement:
      fr.findings = lint_placement(text, opt.placement);
      break;
    case Format::kRouteProblem:
      fr.findings = lint_route_problem(text);
      break;
    case Format::kRouteSolution:
      fr.findings = lint_route_solution(text, opt.route_problem);
      break;
    case Format::kKbddScript: fr.findings = lint_kbdd_script(text); break;
    case Format::kAxb: fr.findings = lint_axb(text); break;
    case Format::kAuto:
    case Format::kUnknown:
      fr.format = Format::kUnknown;
      fr.findings.push_back(
          {"L2L-X000", util::Severity::kNote, 0, 0,
           "unrecognized format: no rule pack applies",
           "pass --format to force one"});
      break;
  }
  sort_findings(fr.findings);
  // Per-rule tallies: commutative counter sums, so concurrent lint_files
  // lanes stay within the deterministic-export contract.
  if (obs::enabled() && !fr.findings.empty()) {
    obs::count("lint.findings",
               static_cast<std::int64_t>(fr.findings.size()));
    for (const auto& finding : fr.findings)
      obs::count("lint.rule." + finding.rule);
  }
  return fr;
}

Report lint_files(
    const std::vector<std::pair<std::string, std::string>>& named_texts,
    const LintOptions& opt) {
  obs::count("lint.files", static_cast<std::int64_t>(named_texts.size()));
  Report report;
  report.files.resize(named_texts.size());
  util::parallel_for(0, static_cast<std::int64_t>(named_texts.size()), 1,
                     [&](std::int64_t i) {
                       const auto k = static_cast<std::size_t>(i);
                       report.files[k] = lint_text(named_texts[k].first,
                                                   named_texts[k].second, opt);
                     });
  return report;
}

}  // namespace l2l::lint
