#include "backend/query_backend.h"

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

}  // namespace dio::backend
