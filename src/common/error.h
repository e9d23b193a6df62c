// Library error types. Errors that indicate programmer misuse of the API
// throw; expected runtime conditions are reported through return values
// (std::optional or status enums) per the Core Guidelines (E.2, E.14).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace acdn {

/// Base class for all library exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a configuration value is out of its documented domain.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error("config: " + what) {}
};

/// Thrown on lookup of an identifier that does not exist in a registry.
class NotFoundError : public Error {
 public:
  explicit NotFoundError(const std::string& what)
      : Error("not found: " + what) {}
};

/// Throws ConfigError if `ok` is false. Use for validating scenario knobs.
/// Takes a view so that a literal message costs no allocation when `ok`.
inline void require(bool ok, std::string_view message) {
  if (!ok) throw ConfigError(std::string(message));
}

}  // namespace acdn
