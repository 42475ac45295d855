#include "io/number.hpp"

#include <version>

#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
#include <charconv>
#else
#include <cstdio>
#include <locale>
#include <sstream>
#endif

namespace dagmap {

std::optional<double> parse_double_strict(std::string_view token) {
  // `std::from_chars` does not accept a leading '+'; GENLIB files in
  // the wild use it.
  if (!token.empty() && token.front() == '+') token.remove_prefix(1);
  if (token.empty()) return std::nullopt;
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  double value = 0.0;
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
#else
  // Fallback for standard libraries without floating-point from_chars:
  // a stream pinned to the classic locale is immune to both
  // `setlocale` and `std::locale::global`.
  std::istringstream in{std::string(token)};
  in.imbue(std::locale::classic());
  double value = 0.0;
  in >> value;
  if (!in || in.peek() != std::char_traits<char>::eof()) return std::nullopt;
  return value;
#endif
}

std::string format_double_shortest(double v) {
  char buf[40];
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  // to_chars emits the shortest round-tripping form and, unlike
  // snprintf's %g, never consults LC_NUMERIC for the decimal point.
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec == std::errc()) return std::string(buf, end);
#else
  // Fallback: increasing %g precision until the value round-trips,
  // normalizing any locale decimal separator back to '.'.
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    for (char* p = buf; *p; ++p)
      if (*p == ',') *p = '.';
    std::optional<double> back = parse_double_strict(buf);
    if (back && *back == v) break;
  }
#endif
  return buf;
}

}  // namespace dagmap
