#pragma once

#include <string>
#include <string_view>

/// \file json_format.hpp
/// The repo's one JSON string escaper and number format, shared by every
/// hand-written JSON document (run/fleet reports, trace exports, the
/// what-if service's replies).

namespace istc {

/// Escape a string for embedding between JSON double quotes: `"` and `\`
/// are backslash-escaped, newline/tab/carriage return use their short
/// escapes, and other control characters become \u00XX.
std::string json_escape(std::string_view s);

/// The repo-wide deterministic double format ("%.6g", integral values
/// printed without an exponent where possible).
std::string format_double(double v);

}  // namespace istc
