#include "rules/parser.h"

#include <cctype>
#include <cstdlib>
#include <vector>

#include "common/string_util.h"
#include "rules/cfd_rule.h"
#include "rules/check_rule.h"
#include "rules/dc_rule.h"
#include "rules/fd_rule.h"

namespace bigdansing {

namespace {

/// Parses one side of a predicate: "t1.attr", "t2.attr", "attr" (implies
/// t1), a quoted string constant, or a numeric constant.
struct Operand {
  bool is_constant = false;
  int tuple = 1;
  std::string attr;
  Value constant;
};

Result<Operand> ParseOperand(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return Status::ParseError("empty operand");
  Operand op;
  if (text.front() == '"') {
    if (text.size() < 2 || text.back() != '"') {
      return Status::ParseError("unterminated string constant: " +
                                std::string(text));
    }
    op.is_constant = true;
    op.constant = Value(std::string(text.substr(1, text.size() - 2)));
    return op;
  }
  // A bare numeral is a constant. Value::Parse keeps only finite decimal
  // numerals as numbers; other text strtod reads as a number ("1e999",
  // "inf", "nan", "0x10") is rejected rather than read as a string
  // constant or an attribute name.
  const std::string buf(text);
  char* end = nullptr;
  std::strtod(buf.c_str(), &end);
  if (end == buf.c_str() + buf.size()) {
    op.constant = Value::Parse(text);
    if (!op.constant.is_numeric()) {
      return Status::ParseError("numeric constant is not a finite decimal: " +
                                buf);
    }
    op.is_constant = true;
    return op;
  }
  if (StartsWith(text, "t1.") || StartsWith(text, "t2.") ||
      StartsWith(text, "t3.")) {
    op.tuple = text[1] - '0';
    op.attr = std::string(Trim(text.substr(3)));
  } else {
    op.tuple = 1;
    op.attr = std::string(text);
  }
  if (op.attr.empty()) {
    return Status::ParseError("empty attribute in operand: " +
                              std::string(text));
  }
  return op;
}

/// Finds the comparison operator in `conjunct`, returning its position,
/// length, op code and similarity threshold (for ~).
struct OpMatch {
  size_t pos = std::string_view::npos;
  size_t len = 0;
  CmpOp op = CmpOp::kEq;
  double threshold = 0.8;
};

Result<OpMatch> FindOperator(std::string_view conjunct) {
  // Scan left to right; match two-character operators first at each
  // position so "<=" is not read as "<".
  for (size_t i = 0; i < conjunct.size(); ++i) {
    char c = conjunct[i];
    char next = i + 1 < conjunct.size() ? conjunct[i + 1] : '\0';
    OpMatch m;
    m.pos = i;
    if (c == '!' && next == '=') {
      m.op = CmpOp::kNeq;
      m.len = 2;
      return m;
    }
    if (c == '<' && next == '=') {
      m.op = CmpOp::kLeq;
      m.len = 2;
      return m;
    }
    if (c == '>' && next == '=') {
      m.op = CmpOp::kGeq;
      m.len = 2;
      return m;
    }
    if (c == '<' && next == '>') {
      m.op = CmpOp::kNeq;
      m.len = 2;
      return m;
    }
    if (c == '=') {
      m.op = CmpOp::kEq;
      m.len = (next == '=') ? 2 : 1;
      return m;
    }
    if (c == '<') {
      m.op = CmpOp::kLt;
      m.len = 1;
      return m;
    }
    if (c == '>') {
      m.op = CmpOp::kGt;
      m.len = 1;
      return m;
    }
    if (c == '~') {
      m.op = CmpOp::kSimilar;
      m.len = 1;
      // Optional inline threshold: "~0.8".
      size_t j = i + 1;
      size_t start = j;
      while (j < conjunct.size() &&
             (std::isdigit(static_cast<unsigned char>(conjunct[j])) ||
              conjunct[j] == '.')) {
        ++j;
      }
      if (j > start) {
        m.threshold = std::strtod(std::string(conjunct.substr(start, j - start)).c_str(),
                                  nullptr);
        m.len = 1 + (j - start);
      }
      return m;
    }
  }
  return Status::ParseError("no comparison operator in: " +
                            std::string(conjunct));
}

Result<Predicate> ParsePredicate(std::string_view conjunct) {
  auto match = FindOperator(conjunct);
  if (!match.ok()) return match.status();
  auto left = ParseOperand(conjunct.substr(0, match->pos));
  if (!left.ok()) return left.status();
  auto right = ParseOperand(conjunct.substr(match->pos + match->len));
  if (!right.ok()) return right.status();
  if (left->is_constant) {
    return Status::ParseError("left side of a predicate must be an attribute: " +
                              std::string(conjunct));
  }
  Predicate p;
  p.left_tuple = left->tuple;
  p.left_attr = left->attr;
  p.op = match->op;
  p.similarity_threshold = match->threshold;
  if (right->is_constant) {
    p.right_is_constant = true;
    p.constant = right->constant;
  } else {
    p.right_is_constant = false;
    p.right_tuple = right->tuple;
    p.right_attr = right->attr;
  }
  return p;
}

Result<std::vector<Predicate>> ParseConjunction(std::string_view body) {
  std::vector<Predicate> preds;
  for (const auto& conj : Split(body, '&')) {
    if (Trim(conj).empty()) {
      return Status::ParseError("empty conjunct in rule body");
    }
    auto p = ParsePredicate(conj);
    if (!p.ok()) return p.status();
    preds.push_back(std::move(*p));
  }
  if (preds.empty()) return Status::ParseError("rule body has no predicates");
  return preds;
}

Result<RulePtr> ParseFd(const std::string& name, std::string_view body) {
  size_t arrow = body.find("->");
  if (arrow == std::string_view::npos) {
    return Status::ParseError("FD requires '->': " + std::string(body));
  }
  auto parse_attrs = [](std::string_view part) {
    std::vector<std::string> attrs;
    for (const auto& a : Split(part, ',')) {
      auto trimmed = Trim(a);
      if (!trimmed.empty()) attrs.emplace_back(trimmed);
    }
    return attrs;
  };
  auto lhs = parse_attrs(body.substr(0, arrow));
  auto rhs = parse_attrs(body.substr(arrow + 2));
  if (lhs.empty() || rhs.empty()) {
    return Status::ParseError("FD needs attributes on both sides: " +
                              std::string(body));
  }
  return RulePtr(new FdRule(name, std::move(lhs), std::move(rhs)));
}

/// Parses one CFD tableau item: "attr" (wildcard) or "attr=constant".
Result<CfdPatternAttr> ParsePatternAttr(std::string_view item) {
  item = Trim(item);
  if (item.empty()) return Status::ParseError("empty CFD attribute");
  CfdPatternAttr out;
  size_t eq = item.find('=');
  if (eq == std::string_view::npos) {
    out.attribute = std::string(item);
    return out;
  }
  out.attribute = std::string(Trim(item.substr(0, eq)));
  auto constant = ParseOperand(item.substr(eq + 1));
  if (!constant.ok()) return constant.status();
  if (!constant->is_constant) {
    return Status::ParseError("CFD pattern value must be a constant: " +
                              std::string(item));
  }
  if (out.attribute.empty()) {
    return Status::ParseError("empty attribute in CFD pattern: " +
                              std::string(item));
  }
  out.constant = constant->constant;
  return out;
}

/// "CFD: country=\"UK\", zipcode -> city" (variable) or
/// "CFD: zipcode=90210 -> city=\"LA\"" (constant).
Result<RulePtr> ParseCfd(const std::string& name, std::string_view body) {
  size_t arrow = body.find("->");
  if (arrow == std::string_view::npos) {
    return Status::ParseError("CFD requires '->': " + std::string(body));
  }
  std::vector<CfdPatternAttr> lhs;
  for (const auto& item : Split(body.substr(0, arrow), ',')) {
    auto attr = ParsePatternAttr(item);
    if (!attr.ok()) return attr.status();
    lhs.push_back(std::move(*attr));
  }
  auto rhs_items = Split(body.substr(arrow + 2), ',');
  if (lhs.empty() || rhs_items.size() != 1) {
    return Status::ParseError(
        "CFD needs LHS attributes and exactly one RHS attribute: " +
        std::string(body));
  }
  auto rhs = ParsePatternAttr(rhs_items[0]);
  if (!rhs.ok()) return rhs.status();
  return RulePtr(new CfdRule(name, std::move(lhs), std::move(*rhs)));
}

}  // namespace

Result<std::vector<Predicate>> ParsePredicateConjunction(
    const std::string& body) {
  return ParseConjunction(body);
}

Result<RulePtr> ParseRule(const std::string& text) {
  std::string_view rest = Trim(text);
  // Optional "name:" prefix before the kind keyword.
  std::string name(rest);
  auto starts_kind = [&](std::string_view s) {
    auto lower = ToLower(s);
    return StartsWith(lower, "fd:") || StartsWith(lower, "dc:") ||
           StartsWith(lower, "cfd:") || StartsWith(lower, "check:");
  };
  if (!starts_kind(rest)) {
    size_t colon = rest.find(':');
    if (colon == std::string_view::npos) {
      return Status::ParseError("rule must start with FD:, DC: or CHECK:");
    }
    name = std::string(Trim(rest.substr(0, colon)));
    rest = Trim(rest.substr(colon + 1));
    if (!starts_kind(rest)) {
      return Status::ParseError("expected FD:, DC: or CHECK: after name in: " +
                                text);
    }
  } else {
    // A leading token that is itself a kind keyword (a rule named "fd")
    // is a name when another kind keyword follows it.
    size_t colon = rest.find(':');
    auto after = Trim(rest.substr(colon + 1));
    if (starts_kind(after)) {
      name = std::string(Trim(rest.substr(0, colon)));
      rest = after;
    }
  }
  std::string lower = ToLower(rest);
  if (StartsWith(lower, "cfd:")) {
    return ParseCfd(name, Trim(rest.substr(4)));
  }
  if (StartsWith(lower, "fd:")) {
    return ParseFd(name, Trim(rest.substr(3)));
  }
  if (StartsWith(lower, "dc:")) {
    auto preds = ParseConjunction(Trim(rest.substr(3)));
    if (!preds.ok()) return preds.status();
    bool any_pair = false;
    for (const auto& p : *preds) {
      if (p.left_tuple > 2 || (!p.right_is_constant && p.right_tuple > 2)) {
        return Status::ParseError(
            "DC supports t1/t2 only; use a three-tuple DC (DC3 / "
            "ParseThreeTupleDc) for t3");
      }
      any_pair = any_pair || p.left_tuple == 2 ||
                 (!p.right_is_constant && p.right_tuple == 2);
    }
    if (!any_pair) {
      return Status::ParseError(
          "DC references only t1; use CHECK: for single-tuple rules");
    }
    return RulePtr(new DcRule(name, std::move(*preds)));
  }
  if (StartsWith(lower, "check:")) {
    auto preds = ParseConjunction(Trim(rest.substr(6)));
    if (!preds.ok()) return preds.status();
    return RulePtr(new CheckRule(name, std::move(*preds)));
  }
  return Status::ParseError("unknown rule kind in: " + text);
}

}  // namespace bigdansing
