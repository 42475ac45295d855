// Locale-independent numeric parsing and printing for the text formats
// (GENLIB, BLIF, JSON).  `std::stod` delegates to the C library's
// `strtod`, which honors `setlocale(LC_NUMERIC, ...)` — under a
// comma-decimal locale (de_DE and friends) it stops at the '.' in "1.5"
// and silently returns 1.0, corrupting every delay and area in a parsed
// library.  These helpers always use the C-locale ('.') format,
// regardless of the C or C++ global locale.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace dagmap {

/// Parses the *entire* token as a decimal floating-point number in the
/// C locale ("1", "-0.5", "1e3", an optional leading '+').  Returns
/// nullopt on trailing garbage, partial parses, or empty input.
std::optional<double> parse_double_strict(std::string_view token);

/// The shortest C-locale decimal form of `v` that parses back to exactly
/// `v` ("1.09", "999", "2.2000000000000002").  Finite `v` only.
std::string format_double_shortest(double v);

}  // namespace dagmap
