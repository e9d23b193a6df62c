// Library error types. Errors that indicate programmer misuse of the API
// throw; expected runtime conditions are reported through return values
// (std::optional or status enums) per the Core Guidelines (E.2, E.14).
#pragma once

#include <stdexcept>
#include <string>

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
/// The message is a literal, so a passing check costs no allocation; a
/// message built at run time belongs in `if (!ok) throw ConfigError(...)`,
/// which builds it only on failure.
inline void require(bool ok, const char* message) {
  if (!ok) throw ConfigError(message);
}

}  // namespace acdn
