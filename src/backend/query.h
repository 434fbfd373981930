// Query AST for the document store — the subset of the Elasticsearch DSL
// that DIO's analysis pipeline relies on: term / terms / range / prefix /
// exists / match_all composed with bool (must / must_not / should) — plus
// the JSON semantics of hit order and source projection that searches and
// top_hits aggregations share.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace dio::backend {

class Query {
 public:
  enum class Type {
    kMatchAll,
    kTerm,
    kTerms,
    kRange,
    kPrefix,
    kExists,
    kAnd,   // bool.must
    kOr,    // bool.should (minimum_should_match: 1)
    kNot,   // bool.must_not
  };

  static Query MatchAll();
  static Query Term(std::string field, Json value);
  static Query Terms(std::string field, std::vector<Json> values);
  // Numeric range; unset bounds are open.
  static Query Range(std::string field, std::optional<std::int64_t> gte,
                     std::optional<std::int64_t> lte);
  static Query Prefix(std::string field, std::string prefix);
  static Query Exists(std::string field);
  static Query And(std::vector<Query> clauses);
  static Query Or(std::vector<Query> clauses);
  static Query Not(Query clause);

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] const std::string& field() const { return field_; }
  [[nodiscard]] const std::vector<Json>& values() const { return values_; }
  [[nodiscard]] const std::optional<std::int64_t>& gte() const { return gte_; }
  [[nodiscard]] const std::optional<std::int64_t>& lte() const { return lte_; }
  [[nodiscard]] const std::string& prefix() const { return prefix_; }
  [[nodiscard]] const std::vector<Query>& clauses() const { return clauses_; }

  // Parses the Elasticsearch query DSL subset:
  //   {"match_all": {}}
  //   {"term":   {"field": <value>}}
  //   {"terms":  {"field": [<values>...]}}
  //   {"range":  {"field": {"gte": n, "lte": n}}}
  //   {"prefix": {"field": "p"}}
  //   {"exists": {"field": "name"}}
  //   {"bool":   {"must": [...], "should": [...], "must_not": [...]}}
  static Expected<Query> FromJson(const Json& dsl);
  static Expected<Query> FromJsonText(std::string_view text);

  // Evaluates the query against a document (authoritative check; index
  // lookups are an optimization that must agree with this).
  [[nodiscard]] bool Matches(const Json& doc) const;

  // Human-readable form for logging / debugging.
  [[nodiscard]] std::string ToString() const;

 private:
  explicit Query(Type type) : type_(type) {}

  Type type_ = Type::kMatchAll;
  std::string field_;
  std::vector<Json> values_;
  std::optional<std::int64_t> gte_;
  std::optional<std::int64_t> lte_;
  std::string prefix_;
  std::vector<Query> clauses_;
};

struct SortSpec {
  std::string field;
  bool ascending = true;
};

// One sort spec of the DSL: "field", {"field": "asc"|"desc"} (ES shorthand)
// or {"field": {"order": "asc"|"desc"}}; the order defaults to ascending.
// Errors name the field.
Expected<SortSpec> ParseSortSpec(const Json& spec);

// The `fields` projection of one document (SearchRequest::source): only the
// listed top-level members the document has, in document member order. An
// empty list, or a document that is not an object, returns it unchanged.
Json ProjectFields(const Json& doc, std::span<const std::string> fields);

// The sort order every backend honors, over whole JSON documents: per spec,
// a document missing the field sorts last in either direction; two numbers
// or two strings compare by value; any other pair ties and falls through to
// the next spec. Returns false on a full tie — callers break ties by docid
// (or, equivalently, stable-sort input that ascends by docid).
bool JsonSortBefore(std::span<const SortSpec> specs, const Json& a,
                    const Json& b);

}  // namespace dio::backend
