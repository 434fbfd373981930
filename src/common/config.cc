#include "common/config.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace dio {

Expected<Config> Config::ParseString(std::string_view text) {
  Config config;
  std::string section;
  int line_no = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string_view line = TrimWhitespace(raw_line);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        return InvalidArgument("config line " + std::to_string(line_no) +
                               ": unterminated section header");
      }
      section = std::string(TrimWhitespace(line.substr(1, line.size() - 2)));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgument("config line " + std::to_string(line_no) +
                             ": expected key = value");
    }
    std::string key(TrimWhitespace(line.substr(0, eq)));
    std::string value(TrimWhitespace(line.substr(eq + 1)));
    if (key.empty()) {
      return InvalidArgument("config line " + std::to_string(line_no) +
                             ": empty key");
    }
    if (!section.empty()) key = section + "." + key;
    config.entries_[std::move(key)] = std::move(value);
  }
  return config;
}

Expected<Config> Config::ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFound("cannot open config file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseString(buffer.str());
}

bool Config::Has(std::string_view key) const {
  return entries_.find(key) != entries_.end();
}

std::string Config::GetString(std::string_view key, std::string fallback) const {
  auto it = entries_.find(key);
  return it == entries_.end() ? std::move(fallback) : it->second;
}

std::int64_t Config::GetInt(std::string_view key, std::int64_t fallback) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  std::int64_t value = 0;
  const std::string& s = it->second;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return fallback;
  return value;
}

double Config::GetDouble(std::string_view key, double fallback) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    double value = std::stod(it->second, &consumed);
    if (consumed != it->second.size()) return fallback;
    return value;
  } catch (...) {
    return fallback;
  }
}

bool Config::GetBool(std::string_view key, bool fallback) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return fallback;
  const std::string lower = ToLower(it->second);
  if (lower == "true" || lower == "1" || lower == "yes" || lower == "on") {
    return true;
  }
  if (lower == "false" || lower == "0" || lower == "no" || lower == "off") {
    return false;
  }
  return fallback;
}

std::vector<std::string> Config::GetList(std::string_view key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  return SplitAndTrim(it->second, ',');
}

void Config::Set(std::string key, std::string value) {
  entries_[std::move(key)] = std::move(value);
}

std::vector<std::string> WarnUnknownKeys(
    const Config& config, std::string_view section,
    std::initializer_list<std::string_view> known) {
  const std::string prefix = std::string(section) + ".";
  std::vector<std::string> unknown;
  for (const auto& [key, value] : config.entries()) {
    if (key.size() <= prefix.size() || key.compare(0, prefix.size(), prefix)) {
      continue;
    }
    const std::string_view bare = std::string_view(key).substr(prefix.size());
    if (std::find(known.begin(), known.end(), bare) == known.end()) {
      log::Warn("config: unrecognized key [", section, "] ", bare,
                " = ", value, " (ignored)");
      unknown.push_back(key);
    }
  }
  return unknown;
}

Expected<std::size_t> GetCount(const Config& config, const std::string& key,
                               std::size_t fallback, std::int64_t min) {
  if (!config.Has(key)) return fallback;
  const std::string text = config.GetString(key);
  std::int64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    return InvalidArgument(key + " must be an integer (got '" + text + "')");
  }
  if (value < min) {
    return InvalidArgument(key + " must be >= " + std::to_string(min) +
                           " (got " + std::to_string(value) + ")");
  }
  return static_cast<std::size_t>(value);
}

}  // namespace dio
