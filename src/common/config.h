// INI-style configuration file support (§II-F: "All these configurations ...
// can be set through a configuration file").
//
// Format:
//   [tracer]
//   syscalls = read, write, openat
//   ring_buffer_bytes = 268435456
//   # comment
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dio {

class Config {
 public:
  Config() = default;

  static Expected<Config> ParseString(std::string_view text);
  static Expected<Config> ParseFile(const std::string& path);

  // Keys are addressed as "section.key"; keys before any section header live
  // in the "" section and are addressed by bare key name.
  [[nodiscard]] bool Has(std::string_view key) const;
  [[nodiscard]] std::string GetString(std::string_view key,
                                      std::string fallback = "") const;
  [[nodiscard]] std::int64_t GetInt(std::string_view key,
                                    std::int64_t fallback = 0) const;
  [[nodiscard]] double GetDouble(std::string_view key,
                                 double fallback = 0.0) const;
  [[nodiscard]] bool GetBool(std::string_view key, bool fallback = false) const;
  [[nodiscard]] std::vector<std::string> GetList(std::string_view key) const;

  void Set(std::string key, std::string value);

  [[nodiscard]] const std::map<std::string, std::string, std::less<>>& entries()
      const {
    return entries_;
  }

 private:
  std::map<std::string, std::string, std::less<>> entries_;
};

// Typo guard for option parsers: logs one warning per key in `section`
// (addressed as "section.key") whose bare name is not in `known`, and
// returns the offending fully-qualified keys. Option FromConfig() parsers
// call this so a misspelled knob in a bench config is caught instead of
// silently falling back to the default.
std::vector<std::string> WarnUnknownKeys(
    const Config& config, std::string_view section,
    std::initializer_list<std::string_view> known);

// One integer count key: `fallback` when absent, and an InvalidArgument
// naming the key when its value is below `min`.
Expected<std::size_t> GetCount(const Config& config, const std::string& key,
                               std::size_t fallback, std::int64_t min);

}  // namespace dio
