#include "backend/query_backend.h"

#include <algorithm>
#include <cmath>

namespace dio::backend {

namespace {

// A search body's `from` / `size`: a non-negative integer. A double counts
// only when it is integral and at most 2^53, so the conversion is exact and
// can never overflow.
Expected<std::size_t> ParseResultCount(const std::string& key,
                                       const Json& value) {
  if (value.is_int()) {
    if (value.as_int() >= 0) return static_cast<std::size_t>(value.as_int());
  } else if (value.is_double()) {
    const double d = value.as_double();
    if (d >= 0.0 && d == std::floor(d)) {
      if (d > 9007199254740992.0) {
        return InvalidArgument(key + " is out of range");
      }
      return static_cast<std::size_t>(d);
    }
  }
  return InvalidArgument(key + " must be a non-negative integer");
}

// One sort spec: "field", {"field": "asc"|"desc"} (ES shorthand) or
// {"field": {"order": "asc"|"desc"}}; the order defaults to ascending.
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

}  // namespace

Expected<SearchRequest> SearchRequest::FromJson(const Json& body,
                                                std::size_t max_result_window) {
  if (!body.is_object()) {
    return InvalidArgument("search body must be an object");
  }
  SearchRequest request;
  for (const JsonMember& member : body.as_object()) {
    const std::string& key = member.first;
    const Json& value = member.second;
    if (key == "query") {
      auto query = Query::FromJson(value);
      if (!query.ok()) return query.status();
      request.query = std::move(query.value());
    } else if (key == "sort") {
      if (!value.is_array()) {
        return InvalidArgument("sort must be an array");
      }
      for (const Json& spec : value.as_array()) {
        auto parsed = ParseSortSpec(spec);
        if (!parsed.ok()) return parsed.status();
        request.sort.push_back(std::move(*parsed));
      }
    } else if (key == "from" || key == "size") {
      auto count = ParseResultCount(key, value);
      if (!count.ok()) return count.status();
      (key == "from" ? request.from : request.size) = *count;
    } else {
      return InvalidArgument("unknown search body key: " + key);
    }
  }
  if (request.size > max_result_window ||
      request.from > max_result_window - request.size) {
    return InvalidArgument(
        "from + size must be <= max_result_window (" +
        std::to_string(max_result_window) + ")");
  }
  return request;
}

Expected<SearchRequest> SearchRequest::FromJsonText(
    std::string_view text, std::size_t max_result_window) {
  auto parsed = Json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  return FromJson(*parsed, max_result_window);
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
