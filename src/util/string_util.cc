#include "src/util/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace spade {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = Trim(s);
  if (s.empty()) return false;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  // from_chars reads the view in place and rounds correctly, as strtod does,
  // so a whole-string success gives strtod's bits. It takes no leading '+',
  // no hex and no out-of-range value; those go to strtod on a bounded copy,
  // so every string keeps strtod's verdict and value. A standard library
  // without floating-point from_chars (__cpp_lib_to_chars) uses strtod only.
#if defined(__cpp_lib_to_chars)
  double v;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc() && ptr == s.data() + s.size()) {
    *out = v;
    return true;
  }
#endif
  std::string buf(s);
  char* end = nullptr;
  *out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size();
}

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  std::string s(buf);
  if (s.find('.') != std::string::npos) {
    size_t last = s.find_last_not_of('0');
    if (s[last] == '.') --last;
    s.erase(last + 1);
  }
  return s;
}

std::string Join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

}  // namespace spade
