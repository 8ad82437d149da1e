#include "text/normalize.h"

#include <cctype>
#include <cstring>

namespace transer {

size_t NormalizeInto(std::string_view value, const NormalizeOptions& options,
                     char* out) {
  size_t size = 0;
  bool prev_space = false;
  for (char raw : value) {
    unsigned char c = static_cast<unsigned char>(raw);
    if (options.strip_punctuation && std::ispunct(c)) {
      c = ' ';
    } else if (options.lowercase) {
      c = static_cast<unsigned char>(std::tolower(c));
    }
    if (options.collapse_whitespace) {
      // Runs of whitespace -> one space.
      const bool is_space = std::isspace(c) != 0;
      if (is_space && prev_space) continue;
      prev_space = is_space;
      if (is_space) c = ' ';
    }
    out[size++] = static_cast<char>(c);
  }
  if (options.trim) {
    size_t begin = 0;
    while (begin < size && out[begin] == ' ') ++begin;
    while (size > begin && out[size - 1] == ' ') --size;
    if (begin > 0) std::memmove(out, out + begin, size - begin);
    size -= begin;
  }
  return size;
}

std::string NormalizeValue(std::string_view value,
                           const NormalizeOptions& options) {
  std::string out(value.size(), '\0');
  out.resize(NormalizeInto(value, options, out.data()));
  return out;
}

bool IsMissing(std::string_view value) {
  for (char c : value) {
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

}  // namespace transer
