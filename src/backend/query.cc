#include "backend/query.h"

#include <algorithm>

namespace dio::backend {

Query Query::MatchAll() { return Query(Type::kMatchAll); }

Query Query::Term(std::string field, Json value) {
  Query q(Type::kTerm);
  q.field_ = std::move(field);
  q.values_.push_back(std::move(value));
  return q;
}

Query Query::Terms(std::string field, std::vector<Json> values) {
  Query q(Type::kTerms);
  q.field_ = std::move(field);
  q.values_ = std::move(values);
  return q;
}

Query Query::Range(std::string field, std::optional<std::int64_t> gte,
                   std::optional<std::int64_t> lte) {
  Query q(Type::kRange);
  q.field_ = std::move(field);
  q.gte_ = gte;
  q.lte_ = lte;
  return q;
}

Query Query::Prefix(std::string field, std::string prefix) {
  Query q(Type::kPrefix);
  q.field_ = std::move(field);
  q.prefix_ = std::move(prefix);
  return q;
}

Query Query::Exists(std::string field) {
  Query q(Type::kExists);
  q.field_ = std::move(field);
  return q;
}

Query Query::And(std::vector<Query> clauses) {
  Query q(Type::kAnd);
  q.clauses_ = std::move(clauses);
  return q;
}

Query Query::Or(std::vector<Query> clauses) {
  Query q(Type::kOr);
  q.clauses_ = std::move(clauses);
  return q;
}

Query Query::Not(Query clause) {
  Query q(Type::kNot);
  q.clauses_.push_back(std::move(clause));
  return q;
}

bool Query::Matches(const Json& doc) const {
  switch (type_) {
    case Type::kMatchAll:
      return true;
    case Type::kTerm: {
      const Json* value = doc.Find(field_);
      return value != nullptr && *value == values_.front();
    }
    case Type::kTerms: {
      const Json* value = doc.Find(field_);
      if (value == nullptr) return false;
      for (const Json& candidate : values_) {
        if (*value == candidate) return true;
      }
      return false;
    }
    case Type::kRange: {
      const Json* value = doc.Find(field_);
      if (value == nullptr || !value->is_number()) return false;
      const std::int64_t v = value->as_int();
      if (gte_.has_value() && v < *gte_) return false;
      if (lte_.has_value() && v > *lte_) return false;
      return true;
    }
    case Type::kPrefix: {
      const Json* value = doc.Find(field_);
      return value != nullptr && value->is_string() &&
             value->as_string().starts_with(prefix_);
    }
    case Type::kExists:
      return doc.Find(field_) != nullptr;
    case Type::kAnd:
      for (const Query& clause : clauses_) {
        if (!clause.Matches(doc)) return false;
      }
      return true;
    case Type::kOr:
      for (const Query& clause : clauses_) {
        if (clause.Matches(doc)) return true;
      }
      return clauses_.empty();
    case Type::kNot:
      return !clauses_.front().Matches(doc);
  }
  return false;
}

std::string Query::ToString() const {
  switch (type_) {
    case Type::kMatchAll:
      return "match_all";
    case Type::kTerm:
      return "term(" + field_ + "=" + values_.front().Dump() + ")";
    case Type::kTerms: {
      std::string out = "terms(" + field_ + " in [";
      for (std::size_t i = 0; i < values_.size(); ++i) {
        if (i != 0) out += ",";
        out += values_[i].Dump();
      }
      return out + "])";
    }
    case Type::kRange: {
      std::string out = "range(" + field_;
      if (gte_.has_value()) out += " >=" + std::to_string(*gte_);
      if (lte_.has_value()) out += " <=" + std::to_string(*lte_);
      return out + ")";
    }
    case Type::kPrefix:
      return "prefix(" + field_ + "," + prefix_ + ")";
    case Type::kExists:
      return "exists(" + field_ + ")";
    case Type::kAnd:
    case Type::kOr:
    case Type::kNot: {
      std::string out = type_ == Type::kAnd ? "and(" :
                        type_ == Type::kOr ? "or(" : "not(";
      for (std::size_t i = 0; i < clauses_.size(); ++i) {
        if (i != 0) out += ",";
        out += clauses_[i].ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

Expected<Query> Query::FromJson(const Json& dsl) {
  if (!dsl.is_object() || dsl.as_object().size() != 1) {
    return InvalidArgument("query must be an object with exactly one clause");
  }
  const auto& [kind, body] = dsl.as_object().front();

  if (kind == "match_all") return MatchAll();

  if (kind == "term" || kind == "terms" || kind == "prefix" ||
      kind == "range") {
    if (!body.is_object() || body.as_object().size() != 1) {
      return InvalidArgument(kind + " expects {\"field\": ...}");
    }
    const auto& [field, spec] = body.as_object().front();
    if (kind == "term") return Term(field, spec);
    if (kind == "terms") {
      if (!spec.is_array()) {
        return InvalidArgument("terms expects an array of values");
      }
      return Terms(field, spec.as_array());
    }
    if (kind == "prefix") {
      if (!spec.is_string()) {
        return InvalidArgument("prefix expects a string");
      }
      return Prefix(field, spec.as_string());
    }
    // range
    if (!spec.is_object()) {
      return InvalidArgument("range expects {\"gte\"/\"lte\": n}");
    }
    std::optional<std::int64_t> gte;
    std::optional<std::int64_t> lte;
    for (const JsonMember& bound : spec.as_object()) {
      if (!bound.second.is_number()) {
        return InvalidArgument("range bounds must be numeric");
      }
      if (bound.first == "gte") gte = bound.second.as_int();
      else if (bound.first == "lte") lte = bound.second.as_int();
      else if (bound.first == "gt") gte = bound.second.as_int() + 1;
      else if (bound.first == "lt") lte = bound.second.as_int() - 1;
      else return InvalidArgument("unknown range bound: " + bound.first);
    }
    return Range(field, gte, lte);
  }

  if (kind == "exists") {
    const Json* field = body.Find("field");
    if (field == nullptr || !field->is_string()) {
      return InvalidArgument("exists expects {\"field\": \"name\"}");
    }
    return Exists(field->as_string());
  }

  if (kind == "bool") {
    if (!body.is_object()) return InvalidArgument("bool expects an object");
    std::vector<Query> all;
    for (const JsonMember& section : body.as_object()) {
      if (!section.second.is_array()) {
        return InvalidArgument("bool." + section.first +
                               " must be an array of queries");
      }
      std::vector<Query> parsed;
      for (const Json& sub : section.second.as_array()) {
        auto q = FromJson(sub);
        if (!q.ok()) return q;
        parsed.push_back(std::move(q.value()));
      }
      if (section.first == "must") {
        for (Query& q : parsed) all.push_back(std::move(q));
      } else if (section.first == "should") {
        all.push_back(Or(std::move(parsed)));
      } else if (section.first == "must_not") {
        for (Query& q : parsed) all.push_back(Not(std::move(q)));
      } else {
        return InvalidArgument("unknown bool section: " + section.first);
      }
    }
    return And(std::move(all));
  }

  return InvalidArgument("unknown query kind: " + kind);
}

Expected<Query> Query::FromJsonText(std::string_view text) {
  auto parsed = Json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  return FromJson(*parsed);
}

Expected<SortSpec> ParseSortSpec(const Json& spec) {
  if (spec.is_string()) return SortSpec{spec.as_string(), true};
  if (!spec.is_object() || spec.as_object().size() != 1) {
    return InvalidArgument(
        "sort: each spec must be a field name or a one-field object");
  }
  const auto& [field, opts] = spec.as_object().front();
  const Json* order = &opts;
  if (opts.is_object()) {
    order = opts.Find("order");
    if (order == nullptr) return SortSpec{field, true};
  }
  if (!order->is_string() ||
      (order->as_string() != "asc" && order->as_string() != "desc")) {
    return InvalidArgument("sort: order of '" + field +
                           "' must be \"asc\" or \"desc\"");
  }
  return SortSpec{field, order->as_string() == "asc"};
}

Json ProjectFields(const Json& doc, std::span<const std::string> fields) {
  if (fields.empty() || !doc.is_object()) return doc;
  JsonObject members;
  for (const JsonMember& member : doc.as_object()) {
    if (std::find(fields.begin(), fields.end(), member.first) !=
        fields.end()) {
      members.push_back(member);
    }
  }
  return Json(std::move(members));
}

bool JsonSortBefore(std::span<const SortSpec> specs, const Json& a,
                    const Json& b) {
  for (const SortSpec& spec : specs) {
    const Json* va = a.Find(spec.field);
    const Json* vb = b.Find(spec.field);
    if (va == nullptr && vb == nullptr) continue;
    if (va == nullptr) return false;  // missing sorts last
    if (vb == nullptr) return true;
    int cmp = 0;
    if (va->is_number() && vb->is_number()) {
      const double da = va->as_double();
      const double db = vb->as_double();
      cmp = da < db ? -1 : (da > db ? 1 : 0);
    } else if (va->is_string() && vb->is_string()) {
      cmp = va->as_string().compare(vb->as_string());
    }
    if (cmp != 0) return spec.ascending ? cmp < 0 : cmp > 0;
  }
  return false;
}

}  // namespace dio::backend
